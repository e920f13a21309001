#!/usr/bin/env python3
"""Regenerate bench/reference.json from one untraced pass of every workload.

    python3 bench/make_reference.py

Run it only when the program's outputs are meant to change, and review the
diff of reference.json: the benchmark counts every later difference from it
as a failed task.
"""

import json
import random
import sys

import run


def main() -> int:
    sg = run.load_program()
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, cls in run.WORKLOADS.items():
        workload = cls(sg)
        workload.prepare(1)
        result = run.run_pass(workload, random.Random(1), run.SpeedProbes())
        if result.error is not None:
            print(f"{name}: {result.error}", file=sys.stderr)
            return 1
        reference[name] = dict(sorted(result.observed.items()))
        print(f"{name}: {len(result.observed)} tasks in {result.seconds:.2f} s")
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
