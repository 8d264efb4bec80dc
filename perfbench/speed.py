"""Machine-speed probe: scales a measured time to a fixed reference speed.

The machines this benchmark runs on are shared.  The same cold op can take
1.3 s or 2.2 s from one minute to the next, and the speed changes in phases
that last seconds.  ``Probe`` times a fixed pure-Python loop twenty times
before and after the measured code, and every 10 ms while it runs, from a
SIGALRM handler in the same process.  The measured time, less the time the
probes inside it took, is scaled by PROBE_REF_S / (median probe time).  The
result is the time the code would take at the reference speed.  It tracks
the measured code's own slowdowns only as far as the loop shares them.  On
the reference machine, over eight runs of each of four ops, the quartile
spread fell from 0.24-0.36 of the median (wall) to 0.05-0.09 (scaled).  Of
the loops tried, this integer loop tracked best; loops of Fraction
arithmetic or big-integer products did worse.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 80e-6     # median probe time on the reference machine (2-core Xeon VM)
INTERVAL_S = 0.01
EDGE_SAMPLES = 20

_clock = time.perf_counter


def _work() -> int:
    a = 1
    for i in range(400):
        a = (a * 1103515245 + i) % 4294967296
    return a


class Probe:
    """``with Probe() as p: ...`` then read ``p.wall_s`` and ``p.ref_s``."""

    def __init__(self):
        self.samples = []
        self.wall_s = self.ref_s = self.speed = None

    def _sample(self, *_):
        t = _clock()
        _work()
        self.samples.append(_clock() - t)

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._first_inside = len(self.samples)
        self._t0 = _clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = _clock() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        work_s = self.wall_s - sum(self.samples[self._first_inside:])
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.speed = PROBE_REF_S / statistics.median(self.samples)
        self.ref_s = work_s * self.speed
        return False
