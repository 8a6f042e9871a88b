"""Re-record expected.json: the seed program's outputs on unrelabeled inputs.

    python3 perfbench/record.py

Only tasks whose reference is not derived independently carry a key; for
them this stores the seed program's answer in the original labels, and the
benchmark maps it through each run's relabeling.  Every task's hand-derived
checks must still pass here, so a recording cannot enshrine a wrong answer
that the independent checks would catch.  Run it only on a commit whose
outputs are known good.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, SRC, execute

import clock
import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    from huliu import cli

    oracles = workloads.load_oracles(ROOT)
    recorded: dict[str, object] = {}
    problems = []
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for scale in (workloads.FULL, workloads.TINY):
            for name, make_round in workloads.ROUNDS.items():
                tasks = make_round(workloads.Builder(Path(tmp), random.Random(0), identity=True), oracles, scale)
                for task in tasks:
                    if task.key is None and name == "census" and scale is workloads.TINY:
                        continue
                    result, _ = execute(cli, task.argv, clock.Speed())
                    if task.key is not None:
                        recorded[task.key] = task.record(result)
                    for problem in task.check(result, recorded.get(task.key)):
                        problems.append(f"{task.label}: {problem}")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    path = BENCH / "expected.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(recorded)} references written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
