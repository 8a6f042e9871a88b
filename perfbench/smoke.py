"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload:
- the last output line has the promised schema: every end-to-end metric
  untraced, every per-layer metric traced, each with BENCHMARK.json's unit;
- relabeling leaves every count unchanged: two traced runs with different
  seeds report the same `.calls` and other count metrics;
- a deliberately corrupted reference answer makes tasks fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def schema_problems(result: dict, metrics: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted is not a positive whole number")
    if not isinstance(result["failed"], int):
        problems.append("failed is not a whole number")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']}, failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or not isinstance(entry["value"], (int, float)):
            problems.append(f"{name}: {entry}")
        elif name in want and entry["unit"] != want[name]:
            problems.append(f"{name}: unit {entry['unit']}, BENCHMARK.json says {want[name]}")
    return problems


def main() -> int:
    failures = []
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for workload in WORKLOADS:
        plain = run(workload, 1, 0)
        failures += [f"{workload} untraced: {p}" for p in schema_problems(plain, SPEC["end_to_end"])]
        traced = [run(workload, seed, 1) for seed in (1, 2)]
        for result in traced:
            failures += [f"{workload} traced: {p}" for p in schema_problems(result, SPEC["per_layer"])]
        for name in counts:
            a, b = (r["metrics"][name]["value"] for r in traced)
            if a != b:
                failures.append(f"{workload}: {name} is {a} with seed 1 and {b} with seed 2")
        print(f"{workload}: schema and counts checked")

    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    key = "null(Z2^2,Z2^2,0,1) ideals"
    expected[key] = expected[key][:-1]
    corrupted = BENCH / "out" / "corrupted-expected.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    try:
        result = run("lattice", 1, 0, "--expected", str(corrupted))
    finally:
        corrupted.unlink()
    if result["failed"] == 0 or result["correct"]:
        failures.append("a corrupted reference answer went unnoticed")
    else:
        print(f"corrupted reference: {result['failed']} of {result['attempted']} tasks failed, as they should")

    for failure in failures:
        print("FAIL", failure)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
