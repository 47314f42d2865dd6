"""Host-speed probes: fixed pieces of arithmetic timed around each operation.

On a shared host the CPU itself slows down, by up to 1.8x, for stretches of
seconds to minutes.  Process CPU time grows with wall time through these
stretches, so they are not scheduling delays.  A run of 20 seconds that
catches more or less of them moves its raw median latency by 10 to 35
percent from run to run.

A probe is a fixed piece of the arithmetic that dominates a workload, and
it never calls gencosec, so no change to the program can change its time.
It is timed just before and just after each operation, outside the timed
region, and the operation's latency is scaled by ``reference_s / probe
time``: the latency the operation would have had with the host at its
reference speed.  The stretches slow interpreter-bound code more than
code that spends its time inside big-integer and decimal routines, so
each workload gets the probe that matches its hot path:

- ``FRACTION``, small Fraction arithmetic, for ``rows`` and ``reproduce``
  (the partition transform) and for set-up.  Over 368 cold ``rows``
  operations in ten windows of 35, it cut the spread (interquartile range
  over median) of the windows' median latency from 0.091 to 0.013.
- ``BIG_NUMBER``, Fraction sums with large denominators and 1500-digit
  Decimal division, for ``zeta-hp``.  Over 86 repeats of one ``zeta-hp``
  operation, it cut the latency's coefficient of variation from 0.113 to
  0.060, where ``FRACTION`` would have raised it to 0.125.
"""

from __future__ import annotations

import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple


class Probe(NamedTuple):
    run: Callable[[], float]
    #: The probe's typical time on the host the bounds were set on (2 vCPUs
    #: of an Intel Xeon, Python 3.11).  Only the ratio to it matters.
    reference_s: float

    def at_reference_speed(self, seconds: float, probe_s: float) -> float:
        """``seconds`` measured while this probe took ``probe_s``, rescaled."""
        return seconds * self.reference_s / probe_s


def _fraction_arithmetic() -> float:
    start = time.perf_counter()
    acc = [Fraction(0)] * 12
    for n in range(1, 160):
        term = Fraction(1, factorial(n % 25 + 3)) ** (n % 3 + 1)
        for j in range(12):
            acc[j] += term * (j + n)
    return time.perf_counter() - start


def _big_number_arithmetic() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for j in range(1, 120):
        total += Fraction(1, j**10)
    with localcontext(Context(prec=1500)):
        x = Decimal(total.numerator) / Decimal(total.denominator)
        for i in range(1, 40):
            x = (x * x + 1) / (x + i)
    return time.perf_counter() - start


FRACTION = Probe(_fraction_arithmetic, 0.009)
BIG_NUMBER = Probe(_big_number_arithmetic, 0.006)

#: The probe whose arithmetic matches each workload's hot path.
FOR_WORKLOAD = {"rows": FRACTION, "reproduce": FRACTION, "zeta-hp": BIG_NUMBER}
