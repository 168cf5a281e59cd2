"""Host speed, measured alongside the timings so that it can be divided out.

On a shared host the speed of this process's core swings by up to 2x over
tens of seconds (frequency, neighbours' load on the same core and caches),
and every timing in a run moves with it: two sets of runs of the same code,
half an hour apart, differed by half in median page time. ``HostSpeed``
times a fixed pure-Python reference loop (string, regex, dict and sort work
like affret's) every PERIOD seconds between requests. A timing is then
reported in *ref*: its wall time divided by the median reference-loop time
from WINDOW seconds (or its own length, if longer) before it starts to as
long after it ends. The
loop is benchmark code only and never calls affret, so a change to affret
moves the timing and not the reference. Measured on a 2-core VM, windowed
page times spread 0.15 (IQR / median) in wall time and 0.04 in ref.
"""

from __future__ import annotations

import bisect
import re
import statistics
import time

now = time.perf_counter

_TOKEN = re.compile(r"[a-z0-9]+")
_TEXT = " ".join(f"Wo{i:04d}rd{'xyz'[i % 3]}" for i in range(2000))


def reference_work() -> int:
    """A fixed amount of interpreter work; about 6 ms on a 2-core VM."""
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT.casefold()):
        counts[token] = counts.get(token, 0) + 1
        counts[token[::-1]] = counts.get(token[::-1], 0) + 2
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][::-1]))
    return sum(len(term) * n for term, n in ranked[:200])


class HostSpeed:
    PERIOD = 0.25  # seconds between reference samples
    # Seconds on either side of a timing whose samples scale it. A timing
    # longer than this (a build, seconds long, with no samples inside) uses
    # its own length on either side instead.
    WINDOW = 1.0

    def __init__(self):
        self.mids: list[float] = []  # midpoint of each sample, increasing
        self.durations: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = now()
        reference_work()
        t1 = now()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if now() - self.last >= self.PERIOD:
            self.sample()

    def reference_s(self, start: float, end: float) -> float:
        """Median reference-loop time near the interval [``start``, ``end``]."""
        pad = max(self.WINDOW, end - start)
        lo = bisect.bisect_left(self.mids, start - pad)
        hi = bisect.bisect_right(self.mids, end + pad)
        if lo == hi:  # no sample that close: take the nearest one
            nearest = min(range(len(self.mids)), key=lambda i: abs(self.mids[i] - (start + end) / 2))
            return self.durations[nearest]
        return statistics.median(self.durations[lo:hi])

    def in_ref(self, timings: list[tuple[float, float]]) -> list[float]:
        """(start, end) wall-clock pairs to durations in ref."""
        return [(end - start) / self.reference_s(start, end) for start, end in timings]
