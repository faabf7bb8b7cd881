"""Timing corrected for the speed of a shared host.

On a shared host a core's speed changes from one second to the next: a
fixed computation can take 1.5 to 1.9 times longer while another tenant
loads the same physical core, and the share of time spent slowed changes
over minutes.  Wall times of the same code then spread by 30% or more
from run to run.

``WorkClock`` measures the host's speed from inside the measured process.
Every ``PERIOD_S`` of wall time a SIGALRM handler times ``probe``, a fixed
pure-Python computation that does not touch the program under test.  A
stretch of wall time is then converted to *reference seconds*: it is
scaled by ``REF_PROBE_S`` over the probe time measured around it, so a
reference second is the time the host takes for ``1 / REF_PROBE_S`` probes.
Time spent in the probes themselves is left out.

Only the standard library is used, so the clock can run before anything
else is imported.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.1
# Sets the scale only: a round figure between the fast (0.36 ms) and the
# median (0.6 ms) probe time on a 2-vCPU Xeon VM with CPython 3.11.
REF_PROBE_S = 0.0005

_M = [[(i * 12 + j) % 7 for j in range(12)] for i in range(12)]
_MT = [list(col) for col in zip(*_M)]


def _probe_body():
    d = {}
    for k in range(800):
        d[(k, k % 7)] = k
    s = 0
    for k in range(2000):
        s += k * k % 7
    return [[sum(a * b for a, b in zip(row, col)) for col in _MT] for row in _M]


def probe():
    """Seconds the host takes for one probe.  A first, untimed pass warms
    the caches, so the program's own use of them barely shows."""
    _probe_body()
    start = time.perf_counter()
    _probe_body()
    return time.perf_counter() - start


class WorkClock:
    """Probe samples of one process and the map from its wall time
    (``time.perf_counter``) to reference seconds."""

    def __init__(self, ref=REF_PROBE_S):
        self.ref = ref
        self.starts = []   # wall time at which each probe began
        self.ends = []     # ... and ended
        self.probes = []   # its duration as timed by probe()
        self._busy = False
        self._cum = [0.0]  # reference seconds at each probe start

    def start(self):
        """Take a first sample, then one every PERIOD_S from SIGALRM."""
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        self.sample()

    def sample(self):
        """Time one probe now, unless one is already running."""
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            p = probe()
            end = time.perf_counter()
        finally:
            self._busy = False
        self._record(begin, end, p)

    def _record(self, begin, end, p):
        if self.starts:
            # reference time gained from the previous probe's end to this
            # probe's start, at the mean rate of the two probes
            gap = max(begin - self.ends[-1], 0.0)
            rate = 0.5 * (self.ref / self.probes[-1] + self.ref / p)
            self._cum.append(self._cum[-1] + gap * rate)
        self.starts.append(begin)
        self.ends.append(end)
        self.probes.append(p)

    def ref_time(self, t):
        """Reference seconds at wall time t, counted from the first probe.
        Between two probes time runs at the mean of their rates; before the
        first and after the last at that probe's rate; inside a probe it
        stands still."""
        if not self.starts:
            raise RuntimeError("WorkClock has no sample yet")
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self.ref / self.probes[0]
        if t <= self.ends[k]:
            return self._cum[k]
        if k + 1 == len(self.starts):
            return self._cum[k] + (t - self.ends[k]) * self.ref / self.probes[k]
        gap = self.starts[k + 1] - self.ends[k]
        share = (t - self.ends[k]) / gap if gap > 0 else 1.0
        return self._cum[k] + share * (self._cum[k + 1] - self._cum[k])

    def seconds(self, t0, t1):
        """Reference seconds between wall times t0 and t1.  Take a sample
        just before t0 and just after t1, so that both ends are covered."""
        return self.ref_time(t1) - self.ref_time(t0)

    def summary(self):
        """Probe statistics for a result file."""
        ps = sorted(self.probes)
        return {
            "ref_probe_s": self.ref,
            "samples": len(ps),
            "probe_min_s": ps[0] if ps else None,
            "probe_median_s": ps[len(ps) // 2] if ps else None,
            "probe_max_s": ps[-1] if ps else None,
        }
