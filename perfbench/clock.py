"""Reference seconds: measured times with the host's current speed factored out.

On a shared host the same pure-Python loop can run 20-40% slower for
minutes at a time, so two runs of identical code can differ by more than
any useful regression bound.  The benchmark therefore times a fixed loop of
table lookups and set insertions, the operations huliu's scans are made
of, before and after every task and, from a SIGALRM handler in the task's
own thread, every INTERVAL seconds while it runs.  The handler's time is
taken out of the task's time, and the task's time is converted into
reference seconds:

    reference seconds = task seconds × NOMINAL / median loop time

over every sample of the run taken from WINDOW seconds before the task
starts to WINDOW seconds after it ends: the work done at the speed the host
had around the task.  The host's speed drifts over minutes, so the window
is local enough, and its median is not moved by the single sample a
preemption happens to hit, which on a short task with only its own two
samples would shift the task's time by a third.  NOMINAL is about what the
loop takes on the recording machine in a fast phase, so reference seconds
read close to wall seconds there.  A change to huliu moves task times but
not the loop, so it shows in full.
"""

from __future__ import annotations

import bisect
import inspect
import signal
import statistics
from time import perf_counter
from typing import Callable

NOMINAL = 0.002
INTERVAL = 0.1
WINDOW = 0.5


def _make_table() -> list[list[int]]:
    return [[(7 * x + 3 * y + x * y) % 64 for y in range(64)] for x in range(64)]


_TABLE = _make_table()


def reference_loop() -> float:
    """Seconds one pass of the fixed loop takes now."""
    table = _TABLE
    t0 = perf_counter()
    members: set[int] = set()
    acc = 0
    for _ in range(12):
        for x in range(64):
            row = table[x]
            for y in range(64):
                acc = table[row[y]][acc]
                if acc not in members:
                    members.add(acc)
    return perf_counter() - t0


class Speed:
    """Every loop sample of a run with the time it ended, and from them the
    factor to reference seconds for any stretch of the run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        loop = reference_loop()
        self.times.append(perf_counter())
        self.loops.append(loop)

    def factor(self, start: float, end: float) -> float:
        """Measured to reference seconds for what ran from `start` to `end`."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        return NOMINAL / statistics.median(self.loops[lo:hi])


class Sampler:
    """Times one task and samples the loop into `speed` around and during it.

    `seconds` is the task's wall time without the in-task samples, whose
    durations also go to `on_sample` as they are taken; `start` and `end`
    place the task for `Speed.factor`."""

    def __init__(self, speed: Speed, on_sample: Callable[[float], None] | None = None) -> None:
        self.speed = speed
        self.stolen = 0.0
        self.on_sample = on_sample

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.speed.sample()
        seconds = perf_counter() - t0
        self.stolen += seconds
        if self.on_sample is not None:
            self.on_sample(seconds)

    def __enter__(self) -> "Sampler":
        self.speed.sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = perf_counter()
        self.seconds = self.end - self.start - self.stolen
        signal.signal(signal.SIGALRM, self._previous)
        self.speed.sample()


def import_probe(module: str) -> str:
    """A script that times `import <module>` in a fresh interpreter and
    prints the measured seconds and the factor to reference seconds.  It
    carries its own copy of the loop, so nothing the module might need is
    imported before the timing starts."""
    return "\n".join(
        [
            "from time import perf_counter",
            f"NOMINAL = {NOMINAL!r}",
            inspect.getsource(_make_table),
            "_TABLE = _make_table()",
            inspect.getsource(reference_loop),
            "reference_loop()",
            "before = reference_loop()",
            "t0 = perf_counter()",
            f"import {module}",
            "seconds = perf_counter() - t0",
            "print(seconds, 2 * NOMINAL / (before + reference_loop()))",
        ]
    )
