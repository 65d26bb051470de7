"""Rescale measured times by the machine's current speed.

On a shared host the same work runs up to 1.9x slower for spells of seconds
to minutes while other tenants are busy, and process CPU time slows just as
much as wall time.  A fixed probe, a short pure-Python integer loop that owes
nothing to the msjc package, is timed every ``EVERY_S`` seconds between
simulator steps.  A measured interval is divided by the median of the probes
nearest to it and multiplied by ``NOMINAL_S``, so it reads as the time the
interval would have taken on a machine where the probe takes ``NOMINAL_S``.
A change to the package moves the rescaled time exactly as it moves the raw
time; a slow spell of the machine moves both the interval and its probes.

The probe's own time is kept out of every interval (``paused_s``).
"""

from __future__ import annotations

import bisect
import statistics

from layers import clock

EVERY_S = 0.05
NEAREST = 9  # probes in each estimate of the machine's speed
NOMINAL_S = 1.25e-3  # the probe's time on a quiet 2-CPU x86 VM
_LOOP = 20000


def _probe() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []  # start of each probe
        self.durations: list[float] = []
        self.paused_s = 0.0  # summed probe time, to subtract from intervals
        self._next = 0.0

    def sample(self) -> None:
        t0 = clock()
        _probe()
        t1 = clock()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.paused_s += t1 - t0
        self._next = t1 + EVERY_S

    def tick(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe."""
        if clock() >= self._next:
            self.sample()

    def scale(self, at: float, seconds: float) -> float:
        """``seconds`` measured around time ``at``, at the nominal speed."""
        i = bisect.bisect_left(self.times, at)
        lo, hi = max(0, i - NEAREST), min(len(self.times), i + NEAREST)
        window = sorted(range(lo, hi), key=lambda k: abs(self.times[k] - at))[:NEAREST]
        if not window:
            raise RuntimeError("no speed probe taken yet")
        return seconds * NOMINAL_S / statistics.median(self.durations[k] for k in window)
