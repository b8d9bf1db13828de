"""The repo benchmark: one command, four workloads, two modes.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload end to end (metrics listed under
``end_to_end`` in BENCHMARK.json); ``--trace 1`` is the separate traced
run that prints the per-layer anatomy (``per_layer``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
The exit code is non-zero on any wrong answer.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import FULL, Size, WorkDir, load_spec, prepare_program, require_program

WORKLOADS = ("build", "read-single", "read-pool", "write-mix")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: Size = FULL, corrupt: bool = False) -> tuple[dict, list[str]]:
    """One run: the result object and the report lines printed before it."""
    require_program()
    prepare_program()
    with WorkDir() as work:
        if trace:
            import anatomy

            outcome = anatomy.run(size, seed, work, corrupt)
        else:
            import workloads

            outcome = workloads.run(workload, size, seed, seconds, work, corrupt)
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    checker = outcome.checker
    attempted = sum(entry["attempted"] for entry in outcome.ops.values())
    failed = sum(entry["failed"] for entry in outcome.ops.values()) + len(checker.wrong)
    report = [f"e2ebench {workload} seed={seed} trace={int(trace)}"]
    for kind, entry in outcome.ops.items():
        report.append(
            f"  op {kind:<10} attempted={entry['attempted']} failed={entry['failed']}"
            f" stale_409={entry['stale_409']}"
        )
    report.append(f"  oracle: {checker.checked} replies checked, {len(checker.wrong)} wrong")
    report.extend(f"  WRONG {line}" for line in checker.wrong[:10])
    report.extend(f"  {line}" for line in outcome.notes)
    for name, metric in metrics.items():
        report.append(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    result = {
        "correct": not checker.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
