"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of one CPU drifts by up to 2x over seconds
and minutes, while the program's own cost does not change: the same op
repeated back to back takes anywhere from 1.0x to 1.8x its fastest time,
and CPU time equals wall time throughout. A fixed piece of
benchmark-owned Python work (the probe) slows down with the host by the
same factor, so every timed interval is rescaled by
REFERENCE_PROBE_S / (median probe time around it). The result reads as
milliseconds on the reference host at full speed: the 2-CPU sandbox,
CPython 3.11, where the probe takes REFERENCE_PROBE_S. The probe runs
with the garbage collector off and allocates little, so the program's
heap cannot slow it; the program never runs inside it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_PROBE_S = 0.0012
PROBE_EVERY_S = 0.1      # a probe between ops at most this often
WINDOW_S = 0.5           # probes this close to an interval rescale it


def probe() -> float:
    """Seconds taken by one fixed piece of pure-Python work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        acc = 0
        for i in range(3000):
            k = (i * 7919) & 1023
            counts[k] = counts.get(k, 0) + i
            acc ^= (i << 3) | k
        pairs = set()
        for i in range(1500):
            pairs.add(frozenset((i & 7, i & 15)))
        sorted(counts.values())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe samples over time, and the rescaling they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            took = probe()
            self.at.append(t0)
            self.took.append(took)
            self.spent += time.perf_counter() - t0

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to the
        reference host at full speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            near = [self.took[i]]
        return REFERENCE_PROBE_S / statistics.median(near)

    def rescale(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)
