"""Self-test of the benchmark on the small criterion-8 scene.

    python3 bench/selftest.py

Checks that BENCHMARK.json and bench/metrics.json name the same metrics,
that an untraced and a traced walkthrough emit every named metric with its
unit and no failed check, and that a stage forced to fail shows up in the
failure count. Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((run.ROOT / "bench" / "metrics.json").read_text(encoding="utf-8"))
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        named = {m["name"]: m["unit"] for m in bench[section]}
        if set(named) != set(layers[section]):
            problems.append(f"{section}: BENCHMARK.json and metrics.json differ on "
                            f"{sorted(set(named) ^ set(layers[section]))}")
        result, record = run.measure("tiny", None, layout_seed=int(trace), seconds=0, trace=trace)
        if result["failed"]:
            problems.append(f"{section}: {result['failed']} failed checks: {record['failures']}")
        for name, unit in named.items():
            got = result["metrics"].get(name)
            if got is None or got["unit"] != unit or not isinstance(got["value"], float):
                problems.append(f"{section}: {name} not emitted as a number in {unit}: {got}")

    result, record = run.measure("tiny", None, layout_seed=0, seconds=0, trace=False, break_stage="align")
    if result["correct"] or record["failure_ratio"] <= 0:
        problems.append(f"forced align failure not counted: {record['failed']}/{record['attempted']}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
