"""Op timing that cancels the host's speed swings.

On a shared host the speed of one core drifts by up to a quarter within
seconds, which would swamp the differences the benchmark is meant to
show.  So every op time is scaled by how fast a fixed pure-Python loop
runs right around the op: a scaled time is the op's wall time on a host
where the loop takes NOMINAL_S.  A change to patstat does not change the
loop, so it moves the scaled times in the same proportion as the wall
times.
"""

from __future__ import annotations

import time

#: About the best-of-three time of _spin() on the 2-core x86-64 host,
#: CPython 3.11, where the benchmark's bounds were set, so that scaled
#: times there read about as wall times.
NOMINAL_S = 0.0027

#: Recalibrate after this much op time.
RECALIBRATE_S = 0.05


def _spin() -> int:
    # integer, bit and dict work, like the search's inner loop
    d = {}
    s = 0
    for i in range(20000):
        s += (i * 7 & 0xFF) >> 1
        d[i & 63] = s
    return s


def speed_sample() -> float:
    """Seconds _spin() takes right now, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _spin()
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Scales op wall times to NOMINAL_S, using the calibration taken
    before an op and the one after it when the op ran long enough to
    need a new one."""

    def __init__(self) -> None:
        self._cal = speed_sample()
        self._since = 0.0

    def scale(self, elapsed: float) -> float:
        before = self._cal
        self._since += elapsed
        if self._since >= RECALIBRATE_S:
            self._cal = speed_sample()
            self._since = 0.0
        return elapsed * NOMINAL_S / ((before + self._cal) / 2)
