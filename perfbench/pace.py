"""Host pace: a fixed reference loop, timed throughout the run, that rescales wall times.

A shared host runs the same pure-Python code up to 1.5 times slower in some
states than in others, and its state changes every few seconds. The
reference loop mixes the kinds of work the program does (integer
arithmetic, dict lookups scattered over a few MB, set building), because
each kind slows by its own share in a slow state. A SIGALRM timer runs the
loop every PERIOD_S in the benchmark's own thread,
so each command's wall time can be rescaled by the loop's time while the
command ran: `paced` seconds are wall seconds at the host speed where the
loop takes NOMINAL_S. No thread or process is started.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

NOMINAL_S = 0.001
PERIOD_S = 0.05
# an interval holding fewer probes is rescaled by this many probes nearest to its midpoint
NEAREST = 5


_order = list(range(1 << 16))
random.Random(0).shuffle(_order)
_NEXT = dict(zip(_order, _order[1:] + _order[:1]))  # one cycle through 65536 keys


def reference_loop() -> int:
    """About NOMINAL_S of work on a 2.1 GHz Xeon core, in three equal parts."""
    s = 0
    for i in range(2_200):
        s += i * i % 7
    k = 0
    for _ in range(1_900):
        k = _NEXT[k]
    seen = {(i * 40503) & 0xFFFFF for i in range(1_900)}
    return s + k + len({x for x in seen if x & 1})


class Pacer:
    """Times the reference loop every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paced(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1], less the probes run inside it, at the nominal host speed.

        The host speed is the median probe time inside the interval, or of the
        NEAREST probes to its midpoint when it holds fewer.
        """
        if len(self.durations) < NEAREST:
            raise ValueError(f"only {len(self.durations)} probes recorded")
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        wall = t1 - t0 - sum(self.durations[i:j])
        if j - i < NEAREST:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            i = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            j = i + NEAREST
        return wall * NOMINAL_S / statistics.median(self.durations[i:j])

    def pace(self) -> float:
        """Median probe time over the nominal one; above 1 means a slow host."""
        return statistics.median(self.durations) / NOMINAL_S
