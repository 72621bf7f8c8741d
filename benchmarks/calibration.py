"""A fixed piece of exact arithmetic that times the host, not the program.

On a shared virtual machine the speed of the host changes by up to a
factor of two, in swings lasting from under a second to over a minute. The
``Fraction`` arithmetic the engine spends its time in slows down with it,
so timing this piece right beside the ops tells how fast the host is
running at that moment. It uses only the standard library and no code of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

_rng = random.Random(2018)
_VALUES = tuple(Fraction(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(400))
_PASSES = 12

# What calibrate() takes on the reference host (2-vCPU Intel Xeon virtual
# machine, CPython 3.11.7), its median over half a minute. Host-normalized
# times are expressed in seconds of that host.
REFERENCE_S = 0.022
# How long each timing of the piece between two slices lasts, as a share of
# the slice before it.
SHARE = 0.25


def calibrate(pieces: int = 1) -> float:
    """Seconds the fixed piece takes now, the mean over `pieces` runs."""
    started = time.perf_counter()
    for _ in range(pieces * _PASSES):
        total = Fraction(0)
        for a, b in zip(_VALUES, _VALUES[1:]):
            total += a * b
            total -= a
    return (time.perf_counter() - started) / pieces


def host_factor(pieces: int = 1) -> float:
    """How much slower the reference host would have been than this one
    just now: multiply a time measured now by this to normalize it."""
    return REFERENCE_S / calibrate(pieces)


class HostClock:
    """Host factors for consecutive slices of measured time.

    The piece is timed once when the clock is made and again after each
    slice, for SHARE of the slice's length; a slice's factor is REFERENCE_S
    over the mean of the two timings around it.
    """

    def __init__(self):
        self.calibrations = [calibrate()]
        self.factors: list[float] = []

    def factor(self, slice_s: float) -> float:
        """The factor of the slice of `slice_s` measured seconds just ended."""
        self.calibrations.append(calibrate(max(1, round(SHARE * slice_s / REFERENCE_S))))
        self.factors.append(REFERENCE_S / statistics.fmean(self.calibrations[-2:]))
        return self.factors[-1]
