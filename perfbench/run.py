"""Benchmark of the huliu command line, one workload per process.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 5 --trace 0

Runs whole rounds of the workload's task list through `huliu.cli.run`,
in-process with stdout and stderr captured, until the timed phase has
lasted --seconds.  Inputs are written and reference answers prepared before
each round; only the CLI calls are timed.  Every task's exit code and
output are checked.  Times are reported in reference seconds (clock.py),
which factor out how fast the shared host happens to run; the
human-readable lines give the wall-clock figures too.  The last line of
stdout is one JSON object: `{"correct", "attempted", "failed", "metrics"}`,
with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1.  A traced run alternates traced and untraced rounds, so it also
reports what the tracing costs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 31

sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import workloads  # noqa: E402
from workloads import Builder, Result  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    p.add_argument(
        "--expected", type=Path, default=BENCH / "expected.json", help="reference outputs recorded at seed"
    )
    return p.parse_args(argv)


def measure_setup() -> tuple[float, float]:
    """Median seconds, measured and in reference seconds, that a fresh
    interpreter takes to `import huliu`.  Timed inside each interpreter, so
    the noise of starting a process stays out."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", clock.import_probe("huliu")]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT, capture_output=True)  # compiles bytecode once
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, env=env, check=True, cwd=ROOT, capture_output=True, text=True)
        seconds, factor = (float(x) for x in done.stdout.split())
        samples.append((seconds, seconds * factor))
    return statistics.median(s for s, _ in samples), statistics.median(r for _, r in samples)


def execute(cli, argv: list[str], speed: clock.Speed, tracer=None) -> tuple[Result, clock.Sampler]:
    """One CLI invocation: its result, and the sampler that timed it.  An
    uncaught exception reads as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.begin_task()
    sampler = clock.Sampler(speed, tracer.exclude if tracer is not None else None)
    with sampler, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:
            code = -1
            err.write(traceback.format_exc())
    if tracer is not None:
        tracer.end_task()
    return Result(code, out.getvalue(), err.getvalue()), sampler


def tail_quantile(round_length: int) -> float:
    """p90 when a round has at least 100 tasks, else the highest quantile
    with at least 10 tasks of a round beyond it.  It depends on the task
    list, not on how many rounds a run completes, so runs stay comparable."""
    if round_length >= 100:
        return 0.9
    return max(round_length - 10, 1) / round_length


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over each
    rank's interval.  Unlike a single order statistic it does not jump when
    the quantile falls between two clusters of task sizes, and on a short
    task list it averages the timing noise of the tasks near the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 8  # Simpson's rule on each rank's interval [i/n, (i+1)/n]
    total = weights = 0.0
    for i, x in enumerate(xs):
        lo, h = i / n, 1 / (n * steps)
        ends = density(lo) + density(lo + steps * h)
        w = (ends + sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))) * h / 3
        total += w * x
        weights += w
    return total / weights


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "huliu" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no huliu source tree at {SRC}", file=sys.stderr)
        return 2
    if not args.expected.is_file():
        print(f"error: missing reference file {args.expected}", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    from huliu import cli

    oracles = workloads.load_oracles(ROOT)
    expected = json.loads(args.expected.read_text(encoding="utf-8"))
    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    make_round = workloads.ROUNDS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    (BENCH / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=BENCH / "out"))
    samplers = {False: [], True: []}  # traced? -> the samplers of its tasks
    host = clock.Speed()
    rounds = {False: 0, True: 0}
    attempted = failed = 0
    round_length = 0
    builder = Builder(workdir, rng)
    try:
        while True:
            traced = tracer is not None and rounds[True] <= rounds[False]
            tasks = make_round(builder, oracles, scale)
            rng.shuffle(tasks)
            round_length = len(tasks)
            if traced:
                tracer.install()
            try:
                for task in tasks:
                    result, sampler = execute(cli, task.argv, host, tracer if traced else None)
                    samplers[traced].append(sampler)
                    attempted += 1
                    recorded = expected.get(task.key) if task.key else None
                    if task.key and task.key not in expected:
                        problems = [f"no recorded reference {task.key!r}"]
                    else:
                        problems = task.check(result, recorded)
                    if result.code == -1:
                        problems.append("uncaught exception: " + result.err.strip().splitlines()[-1])
                    if problems:
                        failed += 1
                        if failed <= 5:
                            print(f"FAILED {task.label}: {'; '.join(problems)}", file=sys.stderr)
            finally:
                if traced:
                    tracer.uninstall()
            rounds[traced] += 1
            for path in workdir.iterdir():
                path.unlink()
            elapsed = sum(s.seconds for s in samplers[False] + samplers[True])
            once = args.workload in workloads.SINGLE_ROUND
            if (elapsed >= args.seconds or once) and (tracer is None or rounds[True] == rounds[False]):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = {t: [s.seconds for s in samplers[t]] for t in samplers}
    ref = {t: [s.seconds * host.factor(s.start, s.end) for s in samplers[t]] for t in samplers}

    q = tail_quantile(round_length)
    lines = [
        f"workload {args.workload}, seed {args.seed}: {attempted} tasks in "
        f"{sum(rounds.values())} rounds of {round_length}; host at "
        f"{(sum(ref[False]) + sum(ref[True])) / elapsed:.3f}x reference speed"
    ]

    def summary(times: list[float]) -> dict[str, float]:
        """Percentiles are taken per round and their median reported, so that
        they do not depend on how many rounds a run completes."""
        per_round = [times[i : i + round_length] for i in range(0, len(times), round_length)]
        return {
            "tasks_per_s": len(times) / sum(times),
            "task_p50_s": statistics.median(harrell_davis(r, 0.5) for r in per_round),
            "task_p90_s": statistics.median(harrell_davis(r, q) for r in per_round),
        }

    if tracer is None:
        wall, timed = summary(raw[False]), summary(ref[False])
        wall["setup_s"], timed["setup_s"] = setup
        n = len(raw[False])
        table = (  # name, unit, note
            ("setup_s", "s", f"median of {SETUP_SAMPLES} fresh interpreters"),
            ("tasks_per_s", "1/s", f"{n} tasks"),
            ("task_p50_s", "s", f"{n} tasks"),
            ("task_p90_s", "s", f"p{100 * q:.0f} of {n} tasks"),
        )
        values = {name: (timed[name], unit) for name, unit, _ in table}
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        lines += [f"{name:<12} {timed[name]:<10.6g} {unit:<4} (wall {wall[name]:.6g}; {note})" for name, unit, note in table]
        lines.append(f"{'peak_rss_mb':<12} {values['peak_rss_mb'][0]:<10.6g} MB   (ru_maxrss)")
    else:
        tps = {t: len(ref[t]) / sum(ref[t]) for t in (False, True)}
        values = tracer.metrics(rounds[True])
        speed = sum(ref[True]) / sum(raw[True])
        values = {name: (v * speed if unit == "s" else v, unit) for name, (v, unit) in values.items()}
        values["trace.tasks_per_s_delta"] = (tps[True] - tps[False], "1/s")
        values["trace.overhead_share"] = (1 - tps[True] / tps[False], "ratio")
        spans = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        lines.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}; per-layer values are per round")
        lines += [f"{name:<40} {value:.6g} {unit}" for name, (value, unit) in values.items()]
    lines.append(f"{'error_share':<12} {failed / attempted:.6g} ratio ({failed} of {attempted} tasks failed)")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
