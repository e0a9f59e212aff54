"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the same pure-Python work can take up to twice as long in
one stretch of seconds as in the next, whatever the program does.  Run
between operations for a set share of a run's time, this probe samples the
host's speed over the same stretch as the operations.  ``HostProbe.factor``
is the run's mean probe time over its nominal time: 1.0 when the host ran
at the nominal speed, 2.0 when it ran half as fast.  Dividing a run's times
by it gives them at the nominal speed.

The probe is the benchmark's own code, standard library only, and never
calls flatperm, so a change to the program cannot move it.  Its work is
pure-Python integer and container work like the program's: exact big-integer
products summed into a coefficient list, and a walk over permutations that
counts a statistic into a dict.  UNIT_S must not change once a baseline is
recorded against it.
"""

from __future__ import annotations

import itertools
import time

#: Seconds one unit takes on a calm x86_64 Xeon host under Python 3.11.
UNIT_S = 0.0103

_FACTORS = [(3 ** k) * 12345678901234567 + k for k in range(40, 100)]


def unit() -> int:
    """One unit of fixed reference work; returns a checksum so that no step
    can be skipped."""
    coeffs = [0] * (2 * len(_FACTORS))
    for _ in range(6):
        for i, x in enumerate(_FACTORS):
            for j, y in enumerate(_FACTORS):
                coeffs[i + j] += x * y
    descents: dict[int, int] = {}
    for p in itertools.permutations(range(7)):
        d = sum(1 for a, b in zip(p, p[1:]) if a > b)
        descents[d] = descents.get(d, 0) + 1
    return coeffs[len(_FACTORS)] % 1000003 + descents[3]


CHECKSUM = unit()


class HostProbe:
    """Accumulates probe units and the wall time they took."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> None:
        """Run whole units until at least `seconds` have passed (one unit at
        least)."""
        t0 = time.perf_counter()
        while True:
            if unit() != CHECKSUM:
                raise RuntimeError("host probe computed a wrong checksum")
            self.units += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @property
    def factor(self) -> float:
        """Mean probe time over UNIT_S: how much slower than nominal the host
        ran while the probe sampled it."""
        return self.seconds / (self.units * UNIT_S)
