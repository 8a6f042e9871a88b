"""Compare runs of a parent commit and a change, one row per workload.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files are written by `report.py --out` with the same seeds and
settings; runs pair up by (workload, seed, trace).  For every end-to-end
metric the table gives each side's median and quartiles, the change of the
median, and the share of pairs the change won (ties count for neither
side).  The verdict, with the bound from BENCHMARK.json, is unresolved
with fewer than 10 pairs; otherwise it is

- worse: the change's median is worse than the parent's by more than the
  bound (and, where the parent's own spread, interquartile range over
  median, is wider than the bound, every parent run beats every change
  run);
- better: the change's median is the better one, the change won at least
  9 in 10 pairs and the medians differ by more than the parent's
  interquartile range (where the parent's spread is wider than the bound:
  every change run beats every parent run);
- unresolved: a parent spread wider than the bound with neither of the
  above;
- same: none of these.

Per-layer metrics of traced runs are listed with both medians, no verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from report import load_spec, quartiles

MIN_PAIRS = 10


def load(path: Path) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["seed"], record["trace"])] = record["result"]
    return runs


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], higher: bool, bound: float):
    def beats(a: float, b: float) -> bool:
        return a > b if higher else a < b

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if beats(c, p))
    worse = beats(pm, cm) and abs(cm - pm) > bound * abs(pm)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", wins
    if pm and (p3 - p1) / abs(pm) > bound:
        if all(beats(c, p) for c in change for p in parent):
            return "better", wins
        if worse and all(beats(p, c) for c in change for p in parent):
            return "worse", wins
        return "unresolved", wins
    if worse:
        return "worse", wins
    if beats(cm, pm) and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better", wins
    return "same", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    spec = load_spec()
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed, trace) run appears in both files", file=sys.stderr)
        return 2
    for trace in (0, 1):
        for workload in sorted({k[0] for k in keys if k[2] == trace}):
            mine = [k for k in keys if k[0] == workload and k[2] == trace]
            names = list(parent[mine[0]]["metrics"])
            print(f"\n{workload} ({'traced' if trace else 'untraced'}, {len(mine)} pairs)")
            print(
                f"  {'metric':<40} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
                f" {'delta':>8} {'won':>6}  verdict"
            )
            for name in names:
                pv = [parent[k]["metrics"][name]["value"] for k in mine]
                cv = [change[k]["metrics"][name]["value"] for k in mine]
                p1, pm, p3 = quartiles(pv)
                c1, cm, c3 = quartiles(cv)
                delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
                line = (
                    f"  {name:<40} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30}"
                    f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} {delta:>8}"
                )
                metric = end_to_end.get(name)
                if metric is None:
                    print(line)
                    continue
                pairs = list(zip(pv, cv))
                result, wins = verdict(pv, cv, pairs, metric["better"] == "higher", metric["bound"])
                print(f"{line} {wins / len(pairs):>6.0%}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
