"""Generalized cosecant and secant numbers as polynomials in rho.

c_{rho,k} is the coefficient of z**(2k) in (z/sin z)**rho and d_{rho,k}
the coefficient in (1/cos z)**rho.  Both are computed two independent
ways:

* ``partition_transform`` is the paper's sum over the partitions of k.  A
  partition with parts i of multiplicity lam_i and N parts total
  contributes (-1)**(k+N) * (rho)_N * prod_i inner(i)**lam_i / lam_i!,
  where inner(i) is 1/(2i+1)! for the cosecant family and 1/(2i)! for the
  secant family; a ``SeriesSpec`` names the family by its inner(i).  The
  partitions of each length N are summed at once (the partial Bell / Faa
  di Bruno grouping), so no partition is enumerated.
* ``OracleStream`` never looks at a partition: it takes the logarithm of
  the base series in u = z**2 by the standard quotient recurrence, scales
  by rho, and exponentiates, so agreement with the transform is a real
  cross-check rather than two paths through shared code.

Everything downstream (Bernoulli numbers, even zeta values, coefficient
asymptotics) reads rows from here; ``zeta_even_factor`` is the single
source of zeta(2m)/pi**(2m).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable

from .exactnum import RhoPolynomial, hp_context, pi_hp, pochhammer_poly, poly_eval

__all__ = [
    "COSECANT",
    "SECANT",
    "OracleStream",
    "SeriesSpec",
    "bernoulli_from_cosecant",
    "cosecant_number",
    "gen_cosecant",
    "gen_secant",
    "partition_transform",
    "zeta_even_factor",
    "zeta_even_from_cosecant",
]


@dataclass(frozen=True)
class SeriesSpec:
    """Defines one series family for the partition transform.

    ``inner_value(i)`` is the unsigned magnitude of the coefficient of
    u**i in the base series (u = z**2); the base series itself alternates,
    base(i) = (-1)**i * inner_value(i), which is why the partition sum at
    order k carries an overall (-1)**k for both families.
    """

    name: str
    inner_value: Callable[[int], Fraction]


COSECANT = SeriesSpec("cosecant", lambda i: Fraction(1, factorial(2 * i + 1)))
SECANT = SeriesSpec("secant", lambda i: Fraction(1, factorial(2 * i)))


def partition_transform(k: int, spec: SeriesSpec) -> RhoPolynomial:
    """Order-k row of the series family as a polynomial in rho.

    The partition sum grouped by length N: with h(u) = 1 - base(u) =
    sum_{i>=1} (-1)**(i+1) inner(i) u**i, the partitions of k with N parts
    contribute (rho)_N [u**k] h**N / N!, which is (-1)**(k+N) (rho)_N times
    the partial Bell polynomial of the inner values.  The powers of h come
    from truncated convolution, O(k**3) rational products in all.  The
    result has degree exactly k, zero constant term for k >= 1, and
    leading coefficient inner_value(1)**k / k!.
    """
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    h = [Fraction(0)] + [(-1) ** (i + 1) * spec.inner_value(i) for i in range(1, k + 1)]
    term = [Fraction(1)] + [Fraction(0)] * k  # h**n / n! up to u**k, n = 0
    acc = [Fraction(0)] * (k + 1)
    for n in range(k + 1):
        if n:
            # h**n / n! from h**(n-1) / (n-1)!; h**n has no term below u**n
            term = [Fraction(0)] * n + [
                sum(term[j] * h[i - j] for j in range(n - 1, i)) / n
                for i in range(n, k + 1)
            ]
        for j, c in enumerate(pochhammer_poly(n).coefficients):
            acc[j] += c * term[k]
    return RhoPolynomial(acc)


@lru_cache(maxsize=None)
def gen_cosecant(k: int) -> RhoPolynomial:
    """c_{rho,k}: coefficient of z**(2k) in (z/sin z)**rho."""
    return partition_transform(k, COSECANT)


@lru_cache(maxsize=None)
def gen_secant(k: int) -> RhoPolynomial:
    """d_{rho,k}: coefficient of z**(2k) in sec(z)**rho."""
    return partition_transform(k, SECANT)


def cosecant_number(k: int) -> Fraction:
    """Classical cosecant number c_k, the rho = 1 value of row k."""
    return poly_eval(gen_cosecant(k), 1)


class OracleStream:
    """Exp-log composition oracle, extended one order at a time.

    Works in u = z**2.  With S(u) the base series (sin z / z or cos z),
    M = log S satisfies the quotient recurrence
        M_k = s_k - (1/k) * sum_{j=1}^{k-1} j * M_j * s_{k-j},
    and the target is E = exp(rho * L) with L = -M (cosecant) or L = M
    negated consistently so that E collects (base)**(-rho); its rows obey
        E_k = (rho/k) * sum_{j=1}^{k} j * L_j * E_{k-j},
    evaluated over polynomials in rho.  Rows are built in order, so a
    stream extended to order k holds every row up to k.
    """

    def __init__(self, spec: SeriesSpec):
        self._spec = spec
        self._s: list[Fraction] = [Fraction(1)]
        self._log: list[Fraction] = [Fraction(0)]
        self._rows: list[RhoPolynomial] = [RhoPolynomial.one()]

    def extend(self) -> RhoPolynomial:
        """Compute and return the next row."""
        k = len(self._rows)
        sign = -1 if k % 2 else 1
        self._s.append(sign * self._spec.inner_value(k))
        m_k = self._s[k]
        for j in range(1, k):
            m_k -= Fraction(j, k) * self._log[j] * self._s[k - j]
        self._log.append(m_k)
        # L = -log(base); E_k = (rho/k) sum_j j L_j E_{k-j}
        total = RhoPolynomial.zero()
        for j in range(1, k + 1):
            total = total + self._rows[k - j].scale(-j * self._log[j])
        self._rows.append(total.times_rho().scale(Fraction(1, k)))
        return self._rows[k]

    def row(self, k: int) -> RhoPolynomial:
        """Row k, extending the stream as far as it needs."""
        if k < 0:
            raise ValueError(f"order must be nonnegative, got {k}")
        while len(self._rows) <= k:
            self.extend()
        return self._rows[k]


def bernoulli_from_cosecant(k: int) -> Fraction:
    """B_{2k} recovered from the classical cosecant number c_k.

    B_{2k} = (-1)**(k+1) * (2k)! * c_k / (2**(2k) - 2) for k >= 1.
    """
    if k < 1:
        raise ValueError(f"index must be positive, got {k}")
    sign = 1 if k % 2 else -1
    return sign * factorial(2 * k) * cosecant_number(k) / (2 ** (2 * k) - 2)


def zeta_even_factor(k: int) -> Fraction:
    """zeta(2k)/pi**(2k) = c_k / (2 * (1 - 2**(1-2k))), exactly.

    1/6, 1/90, 1/945, ... for k = 1, 2, 3; equal to |B_2k| 2**(2k-1)/(2k)!.
    """
    if k < 1:
        raise ValueError(f"index must be positive, got {k}")
    return cosecant_number(k) * Fraction(2 ** (2 * k), 2 ** (2 * k + 1) - 4)


def zeta_even_from_cosecant(k: int, precision: int) -> Decimal:
    """zeta(2k) = zeta_even_factor(k) * pi**(2k) as a Decimal.

    At least ``precision`` digits are correct.  The value is returned at
    the full working precision of 8k + 10 guard digits so that comparing
    it against deep partial sums of sum n**(-2k), whose tails can sit far
    below 10**-precision, stays meaningful.
    """
    if precision < 20:
        raise ValueError(f"precision must be at least 20, got {precision}")
    factor = zeta_even_factor(k)
    guard = 8 * k + 10
    with localcontext(hp_context(precision, guard)):
        pi = pi_hp(precision + guard)
        return (
            pi ** (2 * k)
            * Decimal(factor.numerator)
            / Decimal(factor.denominator)
        )
