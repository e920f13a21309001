#!/usr/bin/env python3
"""Fast self-test of the benchmark driver.

    python3 bench/selftest.py

Runs every workload once, untraced and traced, on a subset of its tasks that
takes about a second, checks the outputs against the stored reference, and
requires every metric named in BENCHMARK.json to be reported with its unit.
Then it corrupts one reference entry per workload and requires the run to
count a failed task.
"""

import copy
import json
import math
import sys

import run

# A cheap subset of each workload's tasks, all present in reference.json.
REDUCED = {
    "verify-all": lambda sg: run.VerifyAll(sg, suite="4.5"),
    "spectrum-compare": lambda sg: run.SpectrumCompare(sg, calls=run.SPECTRUM_CALLS[2:]),
    "large-groups": lambda sg: run.LargeGroups(sg, tasks=run.LARGE_GROUP_TASKS[4:]),
}


class SelfTestFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run_once(workload, reference: dict, trace: bool, units: dict) -> tuple[dict, dict]:
    result, report, spans = run.run_benchmark(
        workload, seed=7, seconds=0, trace=trace, reference=reference, setup_samples=1)
    metrics = run.with_units(result["metrics"], units)
    require(list(metrics) == list(units), f"{workload.name}: metric names differ")
    for name, entry in metrics.items():
        require(entry["unit"] == units[name], f"{workload.name}: {name} has no unit")
        require(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
                f"{workload.name}: {name} = {entry['value']!r}")
    require(result["attempted"] >= 1, f"{workload.name}: nothing attempted")
    require(trace == bool(spans), f"{workload.name}: spans recorded only when traced")
    return result, report


def check_reference(reference: dict) -> None:
    verdicts = [o["verdict"] for o in reference["verify-all"].values()]
    counts = (verdicts.count("Match"), verdicts.count("Mismatch"),
              verdicts.count("Mismatch(paper-table)"))
    require(counts == (88, 0, 12), f"verify-all reference verdicts {counts}")
    require(set(reference) == set(run.WORKLOADS), "reference workloads differ")


def main() -> int:
    units = run.load_config()
    reference = json.loads(run.REFERENCE_PATH.read_text())
    sg = run.load_program()
    try:
        check_reference(reference)
        for name, make in REDUCED.items():
            workload = make(sg)
            for trace in (False, True):
                result, report = run_once(workload, reference[name], trace, units[trace])
                require(result["correct"] and result["failed"] == 0,
                        f"{name} trace={trace}: {report['failures']}")
                print(f"{name} trace={int(trace)}: {result['attempted']} tasks ok")

            corrupt = copy.deepcopy(reference[name])
            key = next(iter(workload.expected(corrupt)))
            field = sorted(corrupt[key])[0]
            corrupt[key][field] = "corrupted"
            result, report = run_once(workload, corrupt, False, units[False])
            require(not result["correct"] and report["failed_share"] > 0,
                    f"{name}: a corrupted reference went unnoticed")
            print(f"{name}: corrupted {key!r} {field} -> failed_share "
                  f"{report['failed_share']:.3f}")
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
