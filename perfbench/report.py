"""Run workloads over several seeds and print every metric with its spread.

    python3 perfbench/report.py --out perfbench/out/runs.jsonl

The workloads are those of BENCHMARK.json, the seeds 1 to 10 unless
--seeds says otherwise (compare.py wants at least ten pairs).  Each
(workload, seed) runs `run.py` in its own process, so peak RSS is per
workload.  The table gives, per workload and metric, the median and
quartiles over the seeds and the spread (interquartile range / median)
against the metric's bound from BENCHMARK.json.  error_share is failed
tasks over attempted tasks.  --out appends one JSON line per run, the input
of compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append one JSON line per run")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            if args.out:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with args.out.open("a", encoding="utf-8") as f:
                    record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                    f.write(json.dumps(record) + "\n")
        print(f"\n{workload}: {len(results)} runs, seeds {' '.join(map(str, args.seeds))}")
        print(f"  {'metric':<40} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"{bound:>6.2f}" + (" !" if spread > bound / 3 else "")
            print(f"  {name:<40} {first['unit']:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f} {flag}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  {'error_share':<40} {'ratio':<6} {failed / attempted:>11.5g}   ({failed} of {attempted} tasks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
