#!/usr/bin/env python3
"""Per-layer and end-to-end timings of a supergraph checkout, as BENCH_<label>.json.

Run from the root of a checkout:

    python3 tools/layers.py --label NAME [--root CHECKOUT] [--orders 50 100 200 400]

``--root`` names the checkout whose ``src/`` is measured (default: the one
holding this script), so that one harness measures two revisions on the same
machine. The file is written to ``--out`` (default: the root of this
script's checkout) as

    {"env": {"python", "numpy", "platform", "git_rev"},
     "end_to_end": {"verify_all_s": ..., "run_suite_s": ..., "import_s": ...},
     "layers": {order: {layer: ms}},
     "cap_s": ..., "runs": ...}

``verify_all_s`` is the median wall time of ``--runs`` runs of
``supergraph verify --suite all --jobs 1`` (``python -m supergraph.cli``, a
new interpreter each, so interpreter start-up and import time are included).
The two parts of it that the program decides are timed apart:
``run_suite_s`` is the median wall time of ``--runs`` in-process
``run_suite("all", seed=42)`` calls after one untimed warm-up call, and
``import_s`` the median time of ``import supergraph`` (numpy included) in
``--runs`` new interpreters, timed inside each. At each group order the
layers are timed on the dihedral group of that order, its conjugacy super
graph and that graph's Laplacian:

    groups               dihedral(order // 2), built and fully validated
    commuting_graph      commuting_graph(group)
    partitions           order_partition and conjugacy_partition of the group
    super_graph          super_graph(commuting graph, conjugacy classes)
    twin_canonical_form  twin_canonical_form(super graph)
    quotient_polynomial  super_laplacian_charpoly (the exact quotient route)
    quotient_spectrum    quotient_spectrum(..., "laplacian")
    numeric_eigenvalues  jacobi_eigenvalues of the explicit Laplacian (LAPACK)
    exact_char_poly      char_poly_integer of the explicit Laplacian

The process and its ``verify`` runs are pinned to one BLAS and OpenMP
thread, as ``bench/run.py`` pins them: with a pool per core, LAPACK's idle
threads spin after each call and take CPU time from the layers timed after
them on a small host. Each layer first makes one untimed warm-up call, so
that its figure does not depend on what the layers timed before it in the
same process left in the caches and the allocator; its figure is then the
median wall time of ``--runs`` calls (default 15), in ms. A call still
running after ``CAP_S`` seconds, the warm-up included, is stopped by a timer
signal and its layer recorded as null, as is a layer whose input a stopped
layer did not make; the cap is written to the file. The timer needs a POSIX
system.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ORDERS = (50, 100, 200, 400)
# The explicit exact route took about 1.1 s at order 400 on a 2-core host
# before it reduced super graphs' matrices over the integers.
CAP_S = 5.0
ROOT = Path(__file__).resolve().parents[1]
# Environment variables that size the BLAS and OpenMP thread pools.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class OverCap(Exception):
    pass


def _raise_over_cap(signum, frame):
    raise OverCap


def timed(call, runs: int, cap: float) -> tuple[float | None, object]:
    """The median wall time in ms of ``runs`` calls after one untimed warm-up
    call, and the last result; the time is None when a call runs past
    ``cap`` seconds."""
    walls, result = [], None
    previous = signal.signal(signal.SIGALRM, _raise_over_cap)
    try:
        for _ in range(runs + 1):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                result = call()
            except OverCap:
                return None, None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            walls.append((time.perf_counter() - start) * 1000.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return statistics.median(walls[1:]), result


def layers(sg, order: int, runs: int, cap: float) -> dict:
    """Milliseconds per layer at one group order; see the module docstring."""
    times = {}

    def layer(name, call, *inputs):
        missing = any(x is None for x in inputs)
        times[name], result = (None, None) if missing else timed(call, runs, cap)
        return result

    group = layer("groups", lambda: sg.dihedral(order // 2))
    base = layer("commuting_graph", lambda: sg.commuting_graph(group), group)
    part = layer("partitions", lambda: (sg.order_partition(group),
                                        sg.conjugacy_partition(group))[1], group)
    graph = layer("super_graph", lambda: sg.super_graph(base, part), base, part)
    layer("twin_canonical_form", lambda: sg.twin_canonical_form(graph), graph)
    layer("quotient_polynomial", lambda: sg.super_laplacian_charpoly(base, part), base, part)
    layer("quotient_spectrum", lambda: sg.quotient_spectrum(base, part, "laplacian"), base, part)
    laplacian = None if graph is None else graph.laplacian_matrix()
    layer("numeric_eigenvalues", lambda: sg.jacobi_eigenvalues(laplacian), laplacian)
    layer("exact_char_poly", lambda: sg.char_poly_integer(laplacian), laplacian)
    return times


def verify_all_s(root: Path, runs: int) -> float:
    """Median wall seconds of ``supergraph verify --suite all --jobs 1`` in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "supergraph.cli", "verify", "--suite", "all", "--jobs", "1"]
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def run_suite_s(sg, runs: int) -> float:
    """Median wall seconds of ``runs`` in-process ``run_suite("all", seed=42)``
    calls after one untimed warm-up call."""
    walls = []
    for _ in range(runs + 1):
        start = time.perf_counter()
        sg.run_suite("all", seed=42)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls[1:])


def import_s(root: Path, runs: int) -> float:
    """Median seconds of ``import supergraph`` from ``root``, each in a new
    interpreter and timed inside it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import time; start = time.perf_counter(); import supergraph; "
            "print(time.perf_counter() - start)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(runs))


def git_rev(root: Path) -> str | None:
    """The checkout's commit, with "-dirty" when tracked files differ from it."""
    try:
        run = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty",
                              "--abbrev=40"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return run.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to")
    parser.add_argument("--orders", type=int, nargs="+", default=list(ORDERS))
    parser.add_argument("--runs", type=int, default=15,
                        help="timed calls per layer, and verify runs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import supergraph as sg

    bench = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "platform": platform.platform(), "git_rev": git_rev(root)},
        "end_to_end": {"verify_all_s": verify_all_s(root, args.runs),
                       "run_suite_s": run_suite_s(sg, args.runs),
                       "import_s": import_s(root, args.runs)},
        "layers": {str(order): layers(sg, order, args.runs, CAP_S) for order in args.orders},
        "cap_s": CAP_S,
        "runs": args.runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
