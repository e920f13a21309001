#!/usr/bin/env python3
"""Per-layer and end-to-end timings of supergraph checkouts, as BENCH_<label>.json.

Run from the root of a checkout:

    python3 tools/layers.py --label NAME [--root CHECKOUT] [--against CHECKOUT]
                            [--orders 50 100 200 400] [--runs 15]

``--root`` names the checkout whose ``src/`` is measured (default: the one
holding this script). ``--against`` names a second checkout, measured in the
same invocation: the two checkouts alternate round by round, each first in
every other round, so that a drift of the host's speed moves both alike. Every figure is measured in rounds. A
round of one checkout is one new interpreter, which imports ``supergraph``
from that checkout and measures each figure once; each figure is the median
over ``--runs`` rounds (default 15), and its first and third quartiles over
the same rounds are written under ``spread``, nested as the medians are, so
that a pair whose rounds drifted can be told from a real change. The files
are written to ``--out`` (default: the root of this script's checkout),
``BENCH_<label>.json`` for ``--root`` and ``BENCH_<label>-against.json`` for
``--against``, each as

    {"env": {"python", "numpy", "platform", "git_rev"},
     "end_to_end": {"verify_all_s": ..., "run_suite_s": ..., "import_s": ...,
                    "spectrum_compare_s": ...},
     "layers": {order: {layer: ms}},
     "spread": {"end_to_end": {name: [q1, q3]}, "layers": {order: {layer: [q1, q3]}}},
     "cap_s": ..., "runs": ...}

``git_rev`` is the measured checkout's commit. ``verify_all_s`` is the wall
time of ``supergraph verify --suite all --jobs 1`` (``python -m
supergraph.cli``, a new interpreter, so interpreter start-up and import time
are included). The two parts of it that the program decides are timed
apart: ``run_suite_s`` is the wall time of an in-process
``run_suite("all", seed=42)`` call after one untimed warm-up call, and
``import_s`` the time of the round's ``import supergraph`` (numpy included),
timed inside its interpreter. ``spectrum_compare_s`` is the wall time of the
three in-process ``supergraph.cli.main`` calls of ``bench/run.py``'s
spectrum-compare workload, ``spectrum --method quotient --compare`` on the
D:49 order Laplacian, the Q:17 conjugacy adjacency and the PQ:19,3 order
adjacency, after one untimed warm-up round of the three; a call that exits
nonzero stops the round. At each group order the layers are timed on the
dihedral group of that order, its conjugacy super graph and that graph's
Laplacian:

    groups               dihedral(order // 2), built and fully validated
    commuting_graph      commuting_graph(group)
    partitions           order_partition and conjugacy_partition of the group
    super_graph          super_graph(commuting graph, conjugacy classes)
    twin_canonical_form  twin_canonical_form(super graph)
    quotient_polynomial  super_laplacian_charpoly (the exact quotient route)
    quotient_spectrum    quotient_spectrum(..., "laplacian")
    numeric_eigenvalues  jacobi_eigenvalues of the explicit Laplacian (LAPACK)
    exact_char_poly      char_poly_integer of the explicit Laplacian

The rounds and their ``verify`` runs are pinned to one BLAS and OpenMP
thread, as ``bench/run.py`` pins them: with a pool per core, LAPACK's idle
threads spin after each call and take CPU time from the layers timed after
them on a small host. Each layer first makes one untimed warm-up call, so
that its figure does not depend on what the layers timed before it in the
same round left in the caches and the allocator; its figure is the wall
time of the next call, in ms. A call still running after ``CAP_S`` seconds,
the warm-up included, is stopped by a timer signal and its layer recorded
as null, as is a layer whose input a stopped layer did not make; a layer
null in any round is null in the file. The cap is written to the file. The
timer needs a POSIX system.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
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
# A round: a new interpreter that imports this script from its directory
# (argv[1]) and measures the checkout at argv[2] at the orders after it.
WORKER = ("import sys; sys.path.insert(0, sys.argv[1]); import layers; "
          "layers.one_round(sys.argv[2], sys.argv[3:])")


class OverCap(Exception):
    pass


def _raise_over_cap(signum, frame):
    raise OverCap


def timed(call, cap: float) -> tuple[float | None, object]:
    """The wall time in ms of one call after one untimed warm-up call, and
    its result; the time is None when a call runs past ``cap`` seconds."""
    previous = signal.signal(signal.SIGALRM, _raise_over_cap)
    try:
        for _ in range(2):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                result = call()
            except OverCap:
                return None, None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return (time.perf_counter() - start) * 1000.0, result


def layers(sg, order: int, cap: float) -> dict:
    """Milliseconds per layer at one group order; see the module docstring."""
    times = {}

    def layer(name, call, *inputs):
        missing = any(x is None for x in inputs)
        times[name], result = (None, None) if missing else timed(call, cap)
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


def verify_all_s(root: Path) -> float:
    """Wall seconds of ``supergraph verify --suite all --jobs 1`` in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "supergraph.cli", "verify", "--suite", "all", "--jobs", "1"]
    start = time.perf_counter()
    subprocess.run(command, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_suite_s(sg) -> float:
    """Wall seconds of an in-process ``run_suite("all", seed=42)`` call after
    one untimed warm-up call."""
    for _ in range(2):
        start = time.perf_counter()
        sg.run_suite("all", seed=42)
    return time.perf_counter() - start


# (group, relation, matrix) of bench/run.py's spectrum-compare calls.
SPECTRUM_CALLS = (("D:49", "order", "laplacian"), ("Q:17", "conjugacy", "adjacency"),
                  ("PQ:19,3", "order", "adjacency"))


def spectrum_compare_s() -> float:
    """Wall seconds of the three ``spectrum --compare`` calls of
    ``SPECTRUM_CALLS``, in process, after one untimed warm-up round; their
    output goes to a temporary directory and their stdout is discarded."""
    from supergraph.cli import main

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        argvs = [["spectrum", "--group", group, "--relation", relation, "--matrix", matrix,
                  "--method", "quotient", "--compare", "--output", str(Path(tmp, "s.json"))]
                 for group, relation, matrix in SPECTRUM_CALLS]
        for _ in range(2):
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                codes = [main(argv) for argv in argvs]
            seconds = time.perf_counter() - start
            if any(codes):
                raise RuntimeError(f"spectrum --compare exit codes {codes}")
    return seconds


def one_round(root: str, orders) -> None:
    """Print, as one JSON line, one round of every figure for the checkout at
    ``root``, measured in this interpreter, which must not have imported
    ``supergraph`` yet."""
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import supergraph as sg

    import_s = time.perf_counter() - start
    print(json.dumps({
        "end_to_end": {"verify_all_s": verify_all_s(root), "run_suite_s": run_suite_s(sg),
                       "import_s": import_s, "spectrum_compare_s": spectrum_compare_s()},
        "layers": {str(order): layers(sg, int(order), CAP_S) for order in orders},
    }))


def each_figure(rounds: list, summary):
    """``summary`` of each figure's values over the rounds, nested as each
    round is; None where any round has None."""
    if isinstance(rounds[0], dict):
        return {key: each_figure([r[key] for r in rounds], summary) for key in rounds[0]}
    return None if None in rounds else summary(rounds)


def quartiles(values: list) -> list:
    """The first and third quartiles of the values (the inclusive method, so
    both are the value itself for one round)."""
    if len(values) == 1:
        return [values[0], values[0]]
    return statistics.quantiles(values, n=4, method="inclusive")[::2]


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
    parser.add_argument("--against", type=Path,
                        help="second checkout, measured in alternate rounds into "
                             "BENCH_<label>-against.json")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to")
    parser.add_argument("--orders", type=int, nargs="+", default=list(ORDERS))
    parser.add_argument("--runs", type=int, default=15, help="rounds per checkout")
    args = parser.parse_args(argv)
    checkouts = [(args.root.resolve(), "")]
    if args.against is not None:
        checkouts.append((args.against.resolve(), "-against"))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    command = [sys.executable, "-c", WORKER, str(Path(__file__).resolve().parent)]
    rounds = [[] for _ in checkouts]
    for r in range(args.runs):
        ordered = list(zip(rounds, checkouts))
        for results, (root, _) in ordered[::-1] if r % 2 else ordered:  # ABBA: no side always first
            run = subprocess.run([*command, str(root), *map(str, args.orders)],
                                 check=True, capture_output=True, text=True)
            results.append(json.loads(run.stdout.splitlines()[-1]))
    for results, (root, suffix) in zip(rounds, checkouts):
        bench = {
            "env": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform(), "git_rev": git_rev(root)},
            **each_figure(results, statistics.median),
            "spread": each_figure(results, quartiles),
            "cap_s": CAP_S,
            "runs": args.runs,
        }
        path = args.out / f"BENCH_{args.label}{suffix}.json"
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
