"""How fast the shared host runs, sampled while the benchmark runs.

The benchmark's host shares its cores with other machines' work, and its
speed drifts by a factor of two within seconds.  A :class:`SpeedProbe`
interrupts the process every :data:`INTERVAL` seconds (``SIGALRM``) and
times one call of :func:`reference_loop`, a fixed piece of pure-Python
work, so the samples interleave with whatever the program is doing.

Host figures are then given at the speed of a reference machine that
runs the loop in :data:`REF_SECONDS`: a span of the program's time is
divided by the median slowness of the samples taken around it.  Time
spent in the probe is kept out of the program's time: measure spans with
:meth:`SpeedProbe.clock`, not with ``time.perf_counter``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

#: Seconds between samples, on the host clock.
INTERVAL = 0.005
#: Seconds one :func:`reference_loop` takes on the reference machine.
REF_SECONDS = 0.0002
#: A span's slowness is the median over the samples taken this long
#: before it starts until this long after it ends (program seconds).
WINDOW = 0.05


def reference_loop():
    """Fixed pure-Python work: dict updates in a tight loop."""
    counts = {}
    for i in range(2000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    return counts


class SpeedProbe:
    """Samples of the host's speed, taken on a timer signal between
    :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        #: Program time of each sample, and how long its loop took.
        self.at = array("d")
        self.took = array("d")
        #: Host seconds spent in samples so far.
        self.paused = 0.0

    def clock(self) -> float:
        """Program time: the host clock less the time spent sampling."""
        return time.perf_counter() - self.paused

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        self.at.append(t0 - self.paused)
        self.took.append(took)
        self.paused += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowness(self, start: float, end: float) -> float:
        """How many times slower than the reference machine the host ran
        around the program-time span ``start``..``end``."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        if hi - lo < 3:
            # A sample is late when the program sits in one long C call.
            lo, hi = max(0, lo - 2), min(len(self.at), hi + 2)
        if lo == hi:
            raise RuntimeError("no host speed sample around a span; "
                               "was the probe started?")
        return statistics.median(self.took[lo:hi]) / REF_SECONDS
