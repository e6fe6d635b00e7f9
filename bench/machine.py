"""The machine's current speed, from a fixed piece of reference work.

The machine is shared and its speed drifts by up to 1.5x over minutes (see
README.md, "Machine speed").  Reference.sample times a fixed unit of the
kinds of work the program spends its time in: mpmath Bessel K at integer
and fractional order (in a context of its own, so the program's precision
settings cannot change it), scipy's adaptive quadrature of a Python
callback, and numpy elementwise work.  None of it calls the program, so a
change to the program does not change the reference.

Samples are taken around each set-up and between program calls, once every
few seconds of call time (workloads.Ops); the time between two samples is
scaled by NOMINAL_UNIT_S over their mean unit time, so it reads as it would
on the machine when one unit takes NOMINAL_UNIT_S.  The samples must be
close in time to what they scale: one scale for a whole run, from the
median of its samples, left most of the drift in (README.md).
"""

from __future__ import annotations

import math
import statistics
import time

import mpmath
import numpy as np
from scipy import integrate

# one unit's time on the 2-core Xeon the reference figures in README.md
# come from, in its usual state
NOMINAL_UNIT_S = 0.015
UNITS_PER_SAMPLE = 30        # about 0.5 s



class Reference:
    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.dps = 15
        self.grid = np.linspace(0.1, 5.0, 20_000)
        self.unit()  # warm-up: first-call set-up is not the machine's speed

    def unit(self) -> float:
        ctx = self.ctx
        total = 0.0
        for x in (0.3, 1.1, 2.7, 6.0):
            total += float(ctx.besselk(1, x)) + float(ctx.besselk(0.37, x))
        total += integrate.quad(lambda t: math.exp(-t) * math.cos(3.0 * t), 0.0, 20.0)[0]
        a = self.grid
        total += float(np.sum(np.exp(-a) * np.sqrt(a)))
        return total

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        """A time measured between two samples, at nominal speed."""
        return seconds * NOMINAL_UNIT_S / (0.5 * (before + after))

    def sample(self) -> float:
        """The median time of one unit over UNITS_PER_SAMPLE units."""
        times = []
        for _ in range(UNITS_PER_SAMPLE):
            t0 = time.perf_counter()
            self.unit()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
