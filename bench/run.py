#!/usr/bin/env python3
"""Benchmark of the supergraph program: three workloads, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

The run imports ``supergraph`` from ``src/`` into this one process, pinned to
one thread and one worker, and repeats whole passes of the workload for about
``--seconds`` seconds. Every task's output is checked against
``bench/reference.json``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a report with the environment, the wall time of every pass and
the failures. The times among the metrics are wall times rescaled by speed
probes to a reference speed of the host (see "Speed probes" below).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics instead: untraced and traced
passes alternate, and in a traced pass the program's public functions are
wrapped where the calling modules bind them (``supergraph.verify``,
``supergraph.cli``, ``supergraph.spectra`` and this driver), so that every
call becomes a span. Nothing under ``src/`` changes. The spans are written to
``.bench_build/supergraph/trace-<workload>.jsonl`` when the run ends.

Workloads:

* ``verify-all``: ``supergraph verify --suite all --jobs 1 --trials 200
  --seed SEED``, in process. A task is one verification task: one claim, or
  the generic suite's five randomized properties.
* ``spectrum-compare``: three ``supergraph spectrum --method quotient
  --compare`` calls, one per group family. A task is one call.
* ``large-groups``: the library pipeline of ``graph`` and ``spectrum --method
  quotient`` on groups of order 200 to 400, with no explicit-matrix route.
  A task is one group.

The seed sets the generic suite's seed, the task order within every pass and
the element labelling of the D20 x D10 Cayley table that the run writes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
WORK_DIR = ROOT / ".bench_build" / "supergraph"

# Fresh interpreters started to time ``import supergraph``; setup_s is their median.
SETUP_SAMPLES = 7
# Environment variables that size the BLAS and OpenMP thread pools.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Relative tolerance on eigenvalues compared with the reference.
SPECTRUM_TOL = 1e-6


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def load_program():
    """Pin the process to one thread and one worker, then import supergraph from src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SUPERGRAPH_JOBS", None)
    src = ROOT / "src"
    if not (src / "supergraph" / "__init__.py").is_file():
        raise BenchError(f"no supergraph package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import supergraph
    import supergraph.cli

    if Path(supergraph.__file__).resolve().parent != (src / "supergraph").resolve():
        raise BenchError(f"imported supergraph from {supergraph.__file__}, not from {src}")
    return supergraph


def measure_setup(samples: int, probes: SpeedProbes) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to ``import supergraph``: (wall, rescaled) per sample."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    wall, scaled = [], []
    probes.run()
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import supergraph"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=60,
        )
        end = time.perf_counter()
        probes.run()
        if proc.returncode != 0:
            raise BenchError(f"import supergraph exited with {proc.returncode}")
        wall.append(end - start)
        scaled.append(probes.scaled(start, end))
    return wall, scaled


def poly_digest(poly) -> str:
    return hashlib.sha256(",".join(str(c) for c in poly.coeffs).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Speed probes
#
# The host this benchmark was tuned on (2 shared cores) changes speed by up to
# 2x in stretches of a second to minutes: the same spectrum-compare pass took
# 6.7 to 12 s within seven minutes, and CPU time slowed as much as wall time.
# So an untraced pass runs a fixed probe kernel before it starts, between
# tasks at most every PROBE_INTERVAL_S, and after it ends. Each stretch
# between two probes is rescaled to the speed at which the probe takes
# PROBE_REFERENCE_S, by the ratio of that to the two probes' mean duration,
# raised to PROBE_ELASTICITY: regressing log pass time on log probe time over
# many passes gave a slope of 0.75 on spectrum-compare and 0.77 on
# verify-all. Rescaled times are the metrics; the report line keeps the wall
# times as measured.

PROBE_SIZE = 60
PROBE_REFERENCE_S = 0.02
PROBE_INTERVAL_S = 0.5
PROBE_ELASTICITY = 0.75


def probe_kernel() -> None:
    """A fixed product of a small-integer matrix and a 300-bit one, in pure Python.

    This is the inner loop of the exact characteristic polynomial, the
    program's costliest layer.
    """
    n = PROBE_SIZE
    small = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
    big = [[((i + 1) * (j + 2)) << 300 for j in range(n)] for i in range(n)]
    out = [[0] * n for _ in range(n)]
    for arow, orow in zip(small, out):
        for a, brow in zip(arow, big):
            for j in range(n):
                orow[j] += a * brow[j]


class SpeedProbes:
    """Start and end, in perf_counter seconds, of every probe run so far."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    def run(self) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.intervals.append((start, time.perf_counter()))

    def since_last(self) -> float:
        return time.perf_counter() - self.intervals[-1][1]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside the probes, rescaled to the reference speed."""
        total = 0.0
        for (a0, a1), (b0, b1) in zip(self.intervals, self.intervals[1:]):
            lo, hi = max(t0, a1), min(t1, b0)
            if hi > lo:
                ratio = 2.0 * PROBE_REFERENCE_S / ((a1 - a0) + (b1 - b0))
                total += (hi - lo) * ratio ** PROBE_ELASTICITY
        return total


# ---------------------------------------------------------------------------
# Tracing

GROUP_BUILDERS = ("dihedral", "generalized_quaternion", "semidirect_pq", "read_cayley_file")
# Split by caller: from supergraph.spectra they run on k x k quotient
# matrices, from anywhere else on the n x n explicit matrix.
ROUTED = ("char_poly_integer", "jacobi_eigenvalues")
TIMED = GROUP_BUILDERS + ROUTED + (
    "order_partition",
    "conjugacy_partition",
    "commuting_graph",
    "super_graph",
    "compressed_graph",
    "twin_canonical_form",
    "super_adjacency_charpoly",
    "super_laplacian_charpoly",
    "quotient_spectrum",
    "real_root_isolate",
)
# Entry points, traced under the name of their module.
ENTRY_LAYERS = {"main": "cli", "run_claim_task": "verify"}
LAYERS = (
    "polynomials.char_poly_integer.explicit",
    "polynomials.char_poly_integer.quotient",
    "spectra.jacobi_eigenvalues.explicit",
    "spectra.jacobi_eigenvalues.quotient",
    "spectra.super_adjacency_charpoly",
    "spectra.super_laplacian_charpoly",
    "spectra.quotient_spectrum",
    "spectra.real_root_isolate",
    "groups.build",
    "partitions.order_partition",
    "partitions.conjugacy_partition",
    "graphs.commuting_graph",
    "graphs.super_graph",
    "graphs.compressed_graph",
    "graphs.twin_canonical_form",
    "verify",
    "cli",
)
# Maxima over the run: metric name -> (layers whose spans carry it, span attribute).
MAXIMA = {
    "polynomials.char_poly_integer.explicit.dim_max": (
        ("polynomials.char_poly_integer.explicit",), "dim"),
    "polynomials.char_poly_integer.quotient.dim_max": (
        ("polynomials.char_poly_integer.quotient",), "dim"),
    "polynomials.char_poly_integer.coeff_bits_max": (
        ("polynomials.char_poly_integer.explicit",
         "polynomials.char_poly_integer.quotient"), "coeff_bits"),
    "spectra.jacobi_eigenvalues.explicit.dim_max": (
        ("spectra.jacobi_eigenvalues.explicit",), "dim"),
    "spectra.jacobi_eigenvalues.quotient.dim_max": (
        ("spectra.jacobi_eigenvalues.quotient",), "dim"),
    "groups.build.order_max": (("groups.build",), "order"),
    "partitions.block_count_max": (
        ("partitions.order_partition", "partitions.conjugacy_partition"), "blocks"),
}


def layer_of(name: str, fn, caller: str) -> str:
    if name in ENTRY_LAYERS:
        return ENTRY_LAYERS[name]
    if name in GROUP_BUILDERS:
        return "groups.build"
    layer = f"{fn.__module__.rpartition('.')[2]}.{name}"
    if name in ROUTED:
        layer += ".quotient" if caller == "spectra" else ".explicit"
    return layer


def _span_sizes(name: str, args, result) -> dict:
    """Size attributes recorded on a span, read from the call's argument or result."""
    if name == "char_poly_integer":
        return {"dim": len(args[0]),
                "coeff_bits": max(abs(c).bit_length() for c in result.coeffs)}
    if name == "jacobi_eigenvalues":
        return {"dim": len(args[0])}
    if name in GROUP_BUILDERS:
        return {"order": result.order}
    if name.endswith("_partition"):
        return {"blocks": result.block_count}
    return {}


@contextlib.contextmanager
def patched(obj, attr: str, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


class Tracer:
    """Records one span per call of a wrapped function and keeps them in memory.

    A span has a name (its layer), start and end in perf_counter seconds, the
    id of the span that was open when it started, and the id of the task
    being run.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.task = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            span = {"id": span_id, "name": layer, "parent": parent, "task": self.task}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            span.update(_span_sizes(name, args, result))
            return result

        return traced

    def install(self, stack: contextlib.ExitStack, sg, lib) -> None:
        """Wrap the timed functions as the calling modules and ``lib`` bind them."""
        targets = (
            ("verify", sg.verify, TIMED + ("run_claim_task",)),
            ("cli", sg.cli, TIMED),
            ("spectra", sg.spectra, TIMED),
            ("bench", lib, TIMED + ("main",)),
        )
        for caller, target, names in targets:
            for name in names:
                fn = getattr(target, name, None)
                if fn is not None:
                    layer = layer_of(name, fn, caller)
                    stack.enter_context(patched(target, name, self.wrap(layer, name, fn)))


def layer_totals(spans: list[dict]) -> dict:
    """Self milliseconds and call count per layer.

    A span's self time is its duration minus the durations of its child
    spans; calls run on one thread, so children never overlap.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals = {layer: {"self_ms": 0.0, "calls": 0} for layer in LAYERS}
    for s in spans:
        t = totals[s["name"]]
        t["self_ms"] += (s["end"] - s["start"] - covered[s["id"]]) * 1000.0
        t["calls"] += 1
    return totals


# ---------------------------------------------------------------------------
# Workloads
#
# Each workload names its tasks, makes its inputs from the seed in
# ``prepare``, and runs one pass in ``run``, returning an observation per
# reference key. Every task runs inside ``log.task(key)``.

def _call_cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class VerifyAll:
    """``supergraph verify --suite all``: the paper's claim catalogue."""

    name = "verify-all"

    def __init__(self, sg, suite: str = "all"):
        self.sg = sg
        self.suite = suite
        self.lib = types.SimpleNamespace(main=sg.cli.main)
        self.report_path = WORK_DIR / "verify-report.json"
        self.seed = 0

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def expected(self, reference: dict) -> dict:
        if self.suite == "all":
            return reference
        claims = {claim for _, claim, _ in self.sg.verify.suite_tasks(self.suite)}
        return {k: v for k, v in reference.items() if k.split(" ", 1)[0] in claims}

    def hooks(self, stack, rng, log) -> None:
        """Shuffle the suite's tasks with ``rng`` and run each inside ``log.task``."""
        verify = self.sg.verify
        suite_tasks, run_claim_task = verify.suite_tasks, verify.run_claim_task

        def shuffled_tasks(*args, **kwargs):
            tasks = suite_tasks(*args, **kwargs)
            rng.shuffle(tasks)
            return tasks

        def logged_task(task):
            with log.task(claim_key(task[1], task[2])):
                return run_claim_task(task)

        stack.enter_context(patched(verify, "suite_tasks", shuffled_tasks))
        stack.enter_context(patched(verify, "run_claim_task", logged_task))

    def run(self, rng, log) -> dict:
        argv = ["verify", "--suite", self.suite, "--jobs", "1", "--trials", "200",
                "--seed", str(self.seed), "--report", str(self.report_path)]
        code, _ = _call_cli(self.lib.main, argv)
        report = json.loads(self.report_path.read_text())
        observed = {}
        for r in report["reports"]:
            obs = {"verdict": r["verdict"], "diff": r["diff"]}
            if code != 0:
                obs["exit"] = code
            observed[claim_key(r["claim"], r["params"])] = obs
        return observed


def claim_key(claim: str, params: dict) -> str:
    """Reference key of a claim; the generic suite's seed does not change its verdict."""
    kept = {k: v for k, v in params.items() if k != "seed"}
    return f"{claim} {json.dumps(kept, sort_keys=True)}"


SPECTRUM_CALLS = (
    ("D:49", "order", "laplacian"),
    ("Q:17", "conjugacy", "adjacency"),
    ("PQ:19,3", "order", "adjacency"),
)


class SpectrumCompare:
    """``supergraph spectrum --method quotient --compare``, one call per family."""

    name = "spectrum-compare"

    def __init__(self, sg, calls=SPECTRUM_CALLS):
        self.sg = sg
        self.calls = tuple(calls)
        self.lib = types.SimpleNamespace(main=sg.cli.main)

    @staticmethod
    def key(call) -> str:
        return " ".join(call)

    def prepare(self, seed: int) -> None:
        pass

    def expected(self, reference: dict) -> dict:
        return {self.key(c): reference.get(self.key(c)) for c in self.calls}

    def hooks(self, stack, rng, log) -> None:
        pass

    def run(self, rng, log) -> dict:
        observed = {}
        out_path = WORK_DIR / "spectrum.json"
        for call in rng.sample(self.calls, len(self.calls)):
            group, relation, matrix = call
            key = self.key(call)
            argv = ["spectrum", "--group", group, "--relation", relation, "--matrix", matrix,
                    "--method", "quotient", "--compare", "--output", str(out_path)]
            with log.task(key):
                code, text = _call_cli(self.lib.main, argv)
            poly = self.sg.PolynomialZ.from_json_dict(json.loads(out_path.read_text()))
            observed[key] = {
                "exit": code,
                "degree": poly.degree,
                "charpoly_sha256": poly_digest(poly),
                "compare": [ln for ln in text.splitlines() if ln.startswith("compare:")],
            }
        return observed


# (group, relation); "D20xD10" is the Cayley table the run writes and reads back.
LARGE_GROUP_TASKS = (
    ("D:200", "order"),
    ("Q:100", "order"),
    ("PQ:127,3", "order"),
    ("D:100", "conjugacy"),
    ("D20xD10", "conjugacy"),
)


class LargeGroups:
    """The library pipeline of ``graph`` and ``spectrum --method quotient``."""

    name = "large-groups"

    def __init__(self, sg, tasks=LARGE_GROUP_TASKS):
        self.sg = sg
        self.tasks = tuple(tasks)
        # The functions this driver calls; a traced pass wraps them here.
        self.lib = types.SimpleNamespace(
            **{name: getattr(sg, name) for name in (
                "dihedral", "generalized_quaternion", "semidirect_pq", "read_cayley_file",
                "commuting_graph", "order_partition", "conjugacy_partition", "super_graph",
                "twin_canonical_form", "super_adjacency_charpoly", "super_laplacian_charpoly",
                "quotient_spectrum",
            )}
        )
        self.cayley_path = WORK_DIR / "d20xd10.txt"

    @staticmethod
    def key(task) -> str:
        return " ".join(task)

    def prepare(self, seed: int) -> None:
        """Write D20 x D10 as a Cayley table with its elements relabelled by the seed."""
        import numpy as np

        a = self.sg.dihedral(10).table
        b = self.sg.dihedral(5).table
        table = (a[:, None, :, None] * len(b) + b[None, :, None, :]).reshape(
            len(a) * len(b), -1)
        perm = np.random.default_rng(seed).permutation(len(table))
        relabelled = np.empty_like(table)
        relabelled[np.ix_(perm, perm)] = perm[table]
        group = self.sg.FiniteGroup(relabelled, name="D20xD10", validate=False)
        self.sg.write_cayley_file(group, self.cayley_path)

    def expected(self, reference: dict) -> dict:
        return {self.key(t): reference.get(self.key(t)) for t in self.tasks}

    def hooks(self, stack, rng, log) -> None:
        pass

    def build(self, spec: str):
        lib = self.lib
        if spec == "D20xD10":
            return lib.read_cayley_file(self.cayley_path)
        family, _, params = spec.partition(":")
        builder = {"D": lib.dihedral, "Q": lib.generalized_quaternion,
                   "PQ": lib.semidirect_pq}[family]
        return builder(*(int(p) for p in params.split(",")))

    def run(self, rng, log) -> dict:
        lib = self.lib
        observed = {}
        for task in rng.sample(self.tasks, len(self.tasks)):
            spec, relation = task
            key = self.key(task)
            with log.task(key):
                group = self.build(spec)
                base = lib.commuting_graph(group)
                partition = (lib.order_partition if relation == "order"
                             else lib.conjugacy_partition)
                part = partition(group)
                graph = lib.super_graph(base, part)
                form = lib.twin_canonical_form(graph)
                adjacency = lib.super_adjacency_charpoly(base, part)
                laplacian = lib.super_laplacian_charpoly(base, part)
                spectrum = lib.quotient_spectrum(base, part, "laplacian")
            observed[key] = {
                "order": group.order,
                "blocks": part.block_count,
                "twin_form": form.describe(),
                "adjacency_sha256": poly_digest(adjacency),
                "laplacian_sha256": poly_digest(laplacian),
                "laplacian_spectrum": [[float(v), m] for v, m in spectrum.pairs],
            }
        return observed


WORKLOADS = {w.name: w for w in (VerifyAll, SpectrumCompare, LargeGroups)}


# ---------------------------------------------------------------------------
# Checking

def _expand(pairs) -> list[float]:
    return sorted(v for v, m in pairs for _ in range(m))


def check(observed: dict, expected: dict) -> dict[str, list[str]]:
    """Problems per task whose output is missing, wrong or different from the reference."""
    problems = defaultdict(list)
    for key in sorted(set(observed) | set(expected)):
        obs, ref = observed.get(key), expected.get(key)
        if obs is None:
            problems[key].append("no output")
            continue
        if ref is None:
            problems[key].append("no reference")
            continue
        if obs.get("exit", 0) != 0:
            problems[key].append(f"exit code {obs['exit']}")
        if obs.get("verdict") == "Mismatch":
            problems[key].append("verdict Mismatch")
        if any("DISAGREE" in line for line in obs.get("compare", ())):
            problems[key].append("compare DISAGREE")
        for field in sorted(set(obs) | set(ref)):
            a, b = obs.get(field), ref.get(field)
            if field == "laplacian_spectrum" and a is not None and b is not None:
                ea, eb = _expand(a), _expand(b)
                same = len(ea) == len(eb) and all(
                    abs(x - y) <= SPECTRUM_TOL * max(1.0, abs(y)) for x, y in zip(ea, eb))
            else:
                same = a == b
            if not same:
                problems[key].append(f"{field} {a!r} != reference {b!r}")
    return problems


# ---------------------------------------------------------------------------
# Running

class PassLog:
    """Task intervals of one pass; the tracer when traced, speed probes when timed."""

    def __init__(self, tracer=None, probes=None):
        self.tracer = tracer
        self.probes = probes
        self.tasks: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def task(self, key: str):
        if self.probes is not None and self.probes.since_last() >= PROBE_INTERVAL_S:
            self.probes.run()
        if self.tracer is not None:
            self.tracer.task = key
        start = time.perf_counter()
        try:
            yield
        finally:
            self.tasks.append((start, time.perf_counter()))


class PassResult:
    def __init__(self, log: PassLog, probes: SpeedProbes, start: float, end: float,
                 observed: dict, error):
        self.traced = log.tracer is not None
        self.seconds = end - start
        self.task_ms = [(b - a) * 1000.0 for a, b in log.tasks]
        self.scaled_s = probes.scaled(start, end)
        self.scaled_task_ms = [probes.scaled(a, b) * 1000.0 for a, b in log.tasks]
        self.observed = observed
        self.error = error
        self.spans = []


def run_pass(workload, rng, probes: SpeedProbes, tracer=None) -> PassResult:
    """One pass, between two probes; a traced pass probes nowhere else, as spans would count it."""
    log = PassLog(tracer, probes if tracer is None else None)
    first_span = len(tracer.spans) if tracer else 0
    observed, error = {}, None
    with contextlib.ExitStack() as stack:
        workload.hooks(stack, rng, log)
        if tracer is not None:
            tracer.install(stack, workload.sg, workload.lib)
        probes.run()
        start = time.perf_counter()
        try:
            observed = workload.run(rng, log)
        except Exception as exc:  # a failing task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        probes.run()
    result = PassResult(log, probes, start, end, observed, error)
    if tracer is not None:
        result.spans = tracer.spans[first_span:]
    return result


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def quartiles(samples: list[float]) -> list[float]:
    if len(samples) == 1:
        return samples * 3
    return statistics.quantiles(samples, n=4, method="inclusive")


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "quartiles": quartiles(samples),
            "samples": len(samples)}


def end_to_end_metrics(passes, setup_scaled) -> dict:
    task_ms = [t for p in passes for t in p.scaled_task_ms]
    return {
        "pass_s": statistics.median(p.scaled_s for p in passes),
        "task_ms_p50": percentile(task_ms, 50),
        "task_ms_p90": percentile(task_ms, 90),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def verify_counts(observed: dict) -> dict:
    verdicts = [o["verdict"] for o in observed.values() if "verdict" in o]
    return {
        "verify.claims": len(verdicts),
        "verify.match": verdicts.count("Match"),
        "verify.mismatch": verdicts.count("Mismatch"),
        "verify.paper_table": verdicts.count("Mismatch(paper-table)"),
    }


def per_layer_metrics(passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        totals = layer_totals(p.spans)
        values = {}
        for layer, t in totals.items():
            values[f"{layer}.self_ms"] = t["self_ms"]
            values[f"{layer}.calls"] = t["calls"]
        values.update(verify_counts(p.observed))
        values["unattributed_ms"] = p.seconds * 1000.0 - sum(
            t["self_ms"] for t in totals.values())
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    spans = [s for p in traced for s in p.spans]
    for name, (layers, attr) in MAXIMA.items():
        metrics[name] = max((s[attr] for s in spans if s["name"] in layers and attr in s),
                            default=0)
    untraced_s = statistics.median(p.scaled_s for p in plain)
    traced_s = statistics.median(p.scaled_s for p in traced)
    metrics["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return metrics


def git_rev() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_benchmark(workload, seed: int, seconds: float, trace: bool, reference: dict,
                  setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict, list]:
    """Time and check whole passes for about ``seconds``; return (result, report, spans).

    An untraced run (``trace`` false) times its set-up and then untraced
    passes. A traced run alternates an untraced and a traced pass, starting
    untraced, and runs at least one of each. A pass starts only while the
    median pass still fits in ``seconds``.
    """
    probes = SpeedProbes()
    if not trace:
        setup_wall, setup_scaled = measure_setup(setup_samples, probes)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed)
    expected = workload.expected(reference)
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    passes: list[PassResult] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) or (
        time.perf_counter() - start + statistics.median(p.seconds for p in passes) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        result = run_pass(workload, rng, probes, tracer if traced else None)
        passes.append(result)
        found = check(result.observed, expected)
        attempted += len(set(result.observed) | set(expected))
        failed += len(found)
        if result.error is not None:
            problems.append(f"pass {len(passes)}: {result.error}")
        problems += [f"pass {len(passes)}: {key}: {'; '.join(msgs)}"
                     for key, msgs in found.items()]

    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "env": environment(),
        "pass_wall_s": [p.seconds for p in passes if not p.traced],
        "task_wall_ms": summary([t for p in passes if not p.traced for t in p.task_ms]),
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": problems[:20],
    }
    if trace:
        metrics = per_layer_metrics(passes)
        report["traced_pass_wall_s"] = [p.seconds for p in passes if p.traced]
    else:
        metrics = end_to_end_metrics(passes, setup_scaled)
        report["pass_s"] = summary([p.scaled_s for p in passes])
        report["task_ms"] = summary([t for p in passes for t in p.scaled_task_ms])
        report["setup_wall_s"] = setup_wall
    report["probe_ms"] = summary([(b - a) * 1000.0 for a, b in probes.intervals])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report, tracer.spans if tracer else []


def load_config() -> dict:
    """Metric name -> unit for --trace 0 and --trace 1, from BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in config["end_to_end"]},
        True: {m["name"]: m["unit"] for m in config["per_layer"]},
    }


def with_units(metrics: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        units = load_config()[trace]
        reference = json.loads(REFERENCE_PATH.read_text())[args.workload]
        sg = load_program()
        workload = WORKLOADS[args.workload](sg)
        result, report, spans = run_benchmark(workload, args.seed, args.seconds, trace,
                                              reference)
        result["metrics"] = with_units(result["metrics"], units)
    except (OSError, ValueError, KeyError, BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if spans:
        trace_path = WORK_DIR / f"trace-{args.workload}.jsonl"
        with trace_path.open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
