"""Self-test of the harness, at tiny sizes (about two minutes).

    python3 e2ebench/selftest.py

For every workload, end to end, and for the traced mode it checks that
every metric BENCHMARK.json declares is printed with its unit and that
the run is correct; then that a run whose oracle gives one deliberately
wrong answer is reported as incorrect.  It also checks the benchmark's
tuple-by-tuple oracle against :class:`repro.baselines.NaiveIndex` on a
tiny graph.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import sys

from common import QUERIES, TINY, grid_text, load_spec, prepare_program, require_program
from run import WORKLOADS, measure


def check_oracle() -> list[str]:
    """The lazy oracle agrees with the materializing baseline."""
    from oracle import Oracle, next_tuple

    from repro.baselines import NaiveIndex

    problems = []
    text = grid_text(6, 3)
    for case, query in QUERIES.items():
        oracle = Oracle(text, query)
        want = NaiveIndex(oracle.base, oracle.phi, tuple(oracle.order)).solutions
        got, current = [], (0, 0)
        while current is not None:
            found = oracle.next(None, current)
            if found is None:
                break
            got.append(tuple(found))
            current = next_tuple(tuple(found), oracle.n)
        if got != want:
            problems.append(f"oracle {case}: {len(got)} solutions, NaiveIndex has {len(want)}")
    return problems


def check_run(workload: str, trace: bool) -> list[str]:
    where = f"{workload} trace={int(trace)}"
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        result, _ = measure(workload, seed=1, seconds=1, trace=trace, size=TINY)
        spoiled, _ = measure(workload, seed=1, seconds=1, trace=trace, size=TINY,
                             corrupt=True)
    except Exception as exc:  # the self-test reports every failure it finds
        return [f"{where}: {type(exc).__name__}: {exc}"]
    problems = []
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{where}: {metric['name']} missing or not in {metric['unit']}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: incorrect ({result['failed']} failed)")
    if result["attempted"] < 1:
        problems.append(f"{where}: nothing attempted")
    if spoiled["correct"] or spoiled["failed"] < 1:
        problems.append(f"{where}: a corrupted oracle answer went unnoticed")
    return problems


def main() -> int:
    require_program()
    prepare_program()
    problems = check_oracle()
    # the traced mode prints the same anatomy for every workload: test it once
    for workload, trace in [(w, False) for w in WORKLOADS] + [(WORKLOADS[0], True)]:
        found = check_run(workload, trace)
        print(f"{workload:<12} trace={int(trace)}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for line in problems:
        print(f"  {line}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
