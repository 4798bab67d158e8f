"""How fast the host runs right now, from a fixed reference computation.

Shared machines drift in speed, by up to a factor of two within minutes, and
such a drift moves every timing of a run together. `SpeedProbe` times a
region of work and samples the reference before it, after it and, from a
timer signal, every `INTERVAL_S` during it; the region's time excludes the
samples, and `scaled` converts it to the nominal speed:
scaled = raw * NOMINAL_S / median(reference samples). The reference is the
program's commonest kind of work, an exhaustive identity check over a small
operation table, but it never calls the program, so no change to the program
can change it. Of the references tried, it tracked the host's drift best:
over ten repetitions of a 5 s and a 0.4 s job, scaling cut the coefficient
of variation from 16% to 8% and from 21% to 7%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Optional

NOMINAL_S = 0.0001   # the reference's time at nominal speed (fixed; part of the benchmark)
REPEATS = 5
INTERVAL_S = 0.05


def reference() -> int:
    n = 10
    t = [[(i * j + i + j) % n for j in range(n)] for i in range(n)]
    bad = 0
    for a in range(n):
        ta = t[a]
        for b in range(n):
            for c in range(n):
                if t[ta[b]][c] != ta[t[b][c]]:
                    bad += 1
    return bad


def reference_seconds() -> float:
    """Median time of the reference, with the collector off so that the
    program's live heap cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class OverLimit(BaseException):
    """Raised inside a region that runs past its limit. A BaseException, so
    that the program's own `except Exception` handlers let it through."""


class SpeedProbe:
    """Context manager: `seconds` is the region's own time, `scaled` that
    time at nominal speed. With a `limit` (seconds), the timer raises
    `OverLimit` inside the region once its time passes the limit. Uses
    SIGALRM, so only the main thread may use it."""

    def __init__(self, limit: Optional[float] = None) -> None:
        self.samples: list[float] = []
        self.spent = 0.0          # time taken by samples inside the region
        self.seconds = 0.0
        self.limit = limit

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - start
        if self.limit is not None \
                and time.perf_counter() - self._start - self.spent > self.limit:
            limit, self.limit = self.limit, None
            raise OverLimit(f"over the {limit} s limit")

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(reference_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.limit = None         # a tick still pending must not raise here
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.seconds = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_seconds())

    @property
    def scaled(self) -> float:
        return self.seconds * NOMINAL_S / statistics.median(self.samples)
