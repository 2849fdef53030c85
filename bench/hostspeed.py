"""Host speed, so that times compare from run to run.

The benchmark runs on a few cores of a shared host whose speed swings: the
same CPU-bound call takes up to twice as long in spells that last from a
second to minutes, with CPU time equal to wall time, so neither wall nor
CPU time compares across runs.  `SpeedClock` measures the host's speed
while a workload runs.  Every PERIOD seconds a timer signal interrupts the
process and times `probe`, a fixed piece of pure-Python work (calls,
small-integer bit arithmetic, list and dict stores) that imports nothing
from tropnorm, so that no change to tropnorm moves it.  Between two probes
the host's speed is taken as the mean of theirs, a probe's speed being
REF_PROBE_S over its duration (the median of it and its neighbours, so
that one interrupted probe does not count).

`seconds(t0, t1)` gives the interval between two `time.perf_counter()`
readings in reference seconds: its wall time less the probes inside it,
each stretch scaled by the host's speed there.  A call that takes t
seconds on a host that runs the probe in REF_PROBE_S reads t on a slow
host as on a fast one.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

PERIOD = 0.02        # seconds between probes
REF_PROBE_S = 1e-3   # the probe's duration at reference speed


class _Ticks:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def tick(self):
        self.n += 1


def _descend(j, used, rows, out, ticks):
    ticks.tick()
    if j == 4:
        acc = 0
        for r in rows:
            acc |= r
        out.append((used, acc))
        return
    for h in (3, 5, 6, 9):
        t = h
        while t:
            low = t & -t
            rows[low.bit_length() - 1] |= 1 << j
            t ^= low
        _descend(j + 1, used + h.bit_count(), rows, out, ticks)
        t = h
        while t:
            low = t & -t
            rows[low.bit_length() - 1] &= ~(1 << j)
            t ^= low


def probe() -> int:
    """The fixed work whose duration measures the host's speed."""
    out = []
    _descend(0, 0, [0, 0, 0, 0], out, _Ticks())
    s, d = 0, {}
    for i in range(3000):
        s += (i * i) % 7
        d[i & 255] = s
    return len(out) + s


class SpeedClock:
    """Probes the host's speed from `start` to `stop` and converts
    perf_counter intervals of that time into reference seconds."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each probe's start
        self.ends: list[float] = []    # and end
        self._old = None
        self._probing = False

    def _probe(self, *_):
        if self._probing:  # a timer signal that arrives during a probe
            return
        self._probing = True
        t0 = time.perf_counter()
        probe()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self._probing = False

    def _arm(self, on: bool) -> None:
        signal.setitimer(signal.ITIMER_REAL, PERIOD if on else 0, PERIOD if on else 0)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        self._arm(True)

    def stop(self) -> None:
        self._arm(False)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        self._build()

    @contextlib.contextmanager
    def paused(self):
        """No probes while a child process runs: a probe in this process
        measures the core it runs on, which need not be the child's.  The
        host's speed over the pause is that of the probes just before and
        just after it."""
        self._arm(False)
        self._probe()
        try:
            yield
        finally:
            self._probe()
            self._arm(True)

    def _build(self) -> None:
        d = [e - s for s, e in zip(self.starts, self.ends)]
        speed = [REF_PROBE_S / statistics.median(d[max(0, i - 1):i + 2])
                 for i in range(len(d))]
        # stretch i runs from the end of probe i to the start of probe i + 1
        self._a = self.ends[:-1]
        self._b = self.starts[1:]
        self._speed = [(speed[i] + speed[i + 1]) / 2 for i in range(len(d) - 1)]
        self._ref = [0.0]   # reference seconds before stretch i
        self._busy = [0.0]  # wall seconds outside probes before stretch i
        for a, b, s in zip(self._a, self._b, self._speed):
            self._ref.append(self._ref[-1] + (b - a) * s)
            self._busy.append(self._busy[-1] + (b - a))

    def _at(self, t: float) -> tuple[float, float]:
        """(reference seconds, wall seconds outside probes) from the first
        probe to perf_counter time t."""
        i = bisect.bisect_right(self._a, t) - 1
        if i < 0:
            return 0.0, 0.0
        within = max(0.0, min(t, self._b[i]) - self._a[i])
        return self._ref[i] + within * self._speed[i], self._busy[i] + within

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1]."""
        return self._at(t1)[0] - self._at(t0)[0]

    def busy(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] outside the probes."""
        return self._at(t1)[1] - self._at(t0)[1]
