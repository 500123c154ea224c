"""Time corrected for the speed the machine runs at, measured while it runs.

On a shared host the same Python code can run 1.7x slower for tens of
seconds when neighbours load the machine, which swamps the differences the
benchmark exists to show.  ``SpeedClock`` runs a fixed probe, independent of
zslen, every ``PERIOD`` seconds from a timer signal, so probes land inside
long jobs as well as between them.  ``seconds(a, b)`` converts a
``perf_counter`` interval into reference seconds: the interval minus the
probe time inside it, scaled by ``REFERENCE_S`` over the mean duration of the
probes inside it and on either side of it.  A reference second is a second
of a machine on which one probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.05
REFERENCE_S = 0.0012  # median probe time on the 2-core Xeon this benchmark was tuned on
PROBE_STEPS = 4000
_TABLE = {i: (i * 7919) & 1023 for i in range(1024)}


def reference_work() -> int:
    """Integer arithmetic and dict lookups.  It allocates no container, so it
    never triggers a garbage collection that would scan the jobs' objects."""
    v, total = 1, 0
    for _ in range(PROBE_STEPS):
        v = (v * 1103515245 + 12345) & 0xFFFFFFFF
        total += _TABLE[v & 1023]
    return total


def probe_seconds() -> float:
    """Median of five probe times, measured now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


class SpeedClock:
    """Probe timestamps of one run; use as a context manager around it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def probe(self, *_):
        if self._busy:  # a signal arrived during a probe
            return
        self._busy = True
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of work between ``perf_counter`` readings a < b."""
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_right(self.ends, b)
        inside = [self.ends[i] - self.starts[i] for i in range(first, last)]
        around = inside[:]
        if first > 0:
            around.append(self.ends[first - 1] - self.starts[first - 1])
        if last < len(self.starts):
            around.append(self.ends[last] - self.starts[last])
        return (b - a - sum(inside)) * REFERENCE_S * len(around) / sum(around)
