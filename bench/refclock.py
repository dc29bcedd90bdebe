"""A unit of time that follows the machine's speed.

On a shared host the speed of this process swings by up to about 2x within
seconds, as neighbours come and go, and the average over a 30-second run
moves by 10-20% between runs. The library's code slows much like a plain
Python loop does, so the benchmark times a fixed pure-Python loop right
before each item and states item times in multiples of it as well as in
seconds.

One ref-ms is the time the machine takes, at that moment, for
``REF_MS_ITERATIONS`` iterations of ``_loop``: about 1 ms on a 2.1 GHz Xeon
vCPU. A change to the library cannot move it, so a time in ref-ms moves
only with the work the library does.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

REF_MS_ITERATIONS = 15_000
# Each tick runs a fifth of a ref-ms, so the loop costs about 3% of an
# acceptance_fleet item and far less of the larger ones.
TICK_ITERATIONS = 3_000
# Ticks whose median sets the current length of a ref-ms; one tick alone
# may catch an interrupt.
WINDOW = 7


def _loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i
    return total


class RefClock:
    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.ticks: list[float] = []

    def tick(self) -> None:
        t0 = time.perf_counter()
        _loop(TICK_ITERATIONS)
        elapsed = time.perf_counter() - t0
        self.recent.append(elapsed)
        self.ticks.append(elapsed)

    def ref_ms_s(self) -> float:
        """Seconds one ref-ms takes now: the median of the recent ticks."""
        return statistics.median(self.recent) * (REF_MS_ITERATIONS / TICK_ITERATIONS)
