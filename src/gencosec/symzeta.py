"""Symmetric polynomials over squared integers and even zeta identities.

s(v,n) is the nth elementary symmetric polynomial of {1^2, ..., (v-1)^2}.
These connect to the cosecant rows through c_{2v,i} = 4**i * s(v,i) *
Gamma(2v-2i)/Gamma(2v), and from there to exact identities expressing the
power sums T_m = sum_{k<v} k**(-2m) (equivalently zeta(2m) - zeta(2m,v))
as rational combinations of row-value ratios.  Newton's identities tie
the three together, and they are applied both ways: the scaled ratios
are the elementary symmetric polynomials of {1/k^2}, so
``power_sum_from_ratios`` turns them into T_m for every m, and
``sym_high_partition`` turns T_1..T_{ell-1} back into s(v, v-ell).  Every
T_m is formed by ``harmonic_power_sum``.  Everything rational here is
exact; Decimals appear only in the v -> infinity limit report, whose
estimate is the power sum itself and whose zeta(2m) comes from the rows
through ``zeta_even_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple, Sequence

from .exactnum import hp_context, pi_hp, poly_eval, to_decimal
from .genseries import gen_cosecant, zeta_even_factor

__all__ = [
    "IdentityReport",
    "RiemannLimit",
    "harmonic_power_sum",
    "hurwitz_identity",
    "identity_nine",
    "power_sum_from_ratios",
    "riemann_limit",
    "sym_high_partition",
    "sym_poly",
]

@lru_cache(maxsize=None)
def _sym_values(v: int) -> tuple[int, ...]:
    # coefficients of prod_{j=1}^{v-1} (1 + j**2 * t), ascending in t
    values = [1]
    for j in range(1, v):
        jj = j * j
        values.append(0)
        for i in range(len(values) - 1, 0, -1):
            values[i] += jj * values[i - 1]
    return tuple(values)


def sym_poly(v: int, n: int) -> int:
    """s(v,n), the nth elementary symmetric polynomial of the v-1 squares.

    v = 1 is allowed as the empty-set edge case (only n = 0, value 1).
    """
    if v < 1:
        raise ValueError(f"needs v >= 1, got {v}")
    if not 0 <= n <= v - 1:
        raise ValueError(f"index must be in 0..{v - 1}, got {n}")
    return _sym_values(v)[n]


def harmonic_power_sum(v: int, r: int) -> Fraction:
    """Generalized harmonic number H_{v-1,r} = sum_{k=1}^{v-1} k**-r, exactly.

    For r = 2m this is the power sum T_m = zeta(2m) - zeta(2m,v); keeping
    it as a Fraction is what makes every identity in this module testable
    with zero tolerance.  Every power sum in the package is formed here.

    The terms are put over the one common denominator L = lcm(1..v-1)**r
    and the integer numerator is reduced once, which gives the same
    canonical Fraction as adding the terms one by one, without a gcd per
    term.
    """
    if v < 2:
        raise ValueError(f"needs v >= 2, got {v}")
    if r < 2 or r % 2:
        raise ValueError(f"r must be even and at least 2, got {r}")
    common = lcm(*range(1, v)) ** r
    return Fraction(sum(common // j**r for j in range(1, v)), common)


def sym_high_partition(v: int, ell: int) -> Fraction:
    """s(v, v-ell) from the power sums, by Newton's identities.

    Dividing each product of v-ell squares by the product of all v-1
    squares leaves a product of ell-1 reciprocal squares, so

        s(v,v-ell) = ((v-1)!)**2 * e_{ell-1}

    with e_n the nth elementary symmetric polynomial of {1/j^2 : j < v}.
    The e_n follow from the power sums T_i = H_{v-1,2i} by

        n e_n = sum_{i=1}^{n} (-1)**(i-1) e_{n-i} T_i,

    the inverse of ``power_sum_from_ratios``, in O(ell**2) products.  No
    partition is enumerated and the product recurrence behind ``sym_poly``
    is not used, so agreement with ``sym_poly(v, v-ell)`` is an
    independent check.
    """
    if ell < 1:
        raise ValueError(f"needs ell >= 1, got {ell}")
    if ell > v:
        raise ValueError(f"needs ell <= v, got ell={ell}, v={v}")
    sums = [None] + [harmonic_power_sum(v, 2 * i) for i in range(1, ell)]
    e = [Fraction(1)]
    for n in range(1, ell):
        e.append(sum((-1) ** (i - 1) * e[n - i] * sums[i] for i in range(1, n + 1)) / n)
    return factorial(v - 1) ** 2 * e[ell - 1]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity instance, CLI- and JSON-friendly."""

    name: str
    params: dict
    left: str
    right: str
    equal: bool
    asserted: bool = True
    note: str = ""

    @classmethod
    def compare(cls, name: str, params: dict, left, right, **extra) -> "IdentityReport":
        """The report that ``left == right``, with both sides as strings."""
        return cls(name, params, str(left), str(right), left == right, **extra)

    def as_dict(self) -> dict:
        return {
            "identity": self.name,
            "params": dict(self.params),
            "left": self.left,
            "right": self.right,
            "equal": self.equal,
            "asserted": self.asserted,
            "note": self.note,
        }


def _c2v(v: int, i: int) -> Fraction:
    return poly_eval(gen_cosecant(i), 2 * v)


def identity_nine(v: int, i: int) -> IdentityReport:
    """Check c_{2v,i} = 2**(2i) * (Gamma(2v-2i)/Gamma(2v)) * s(v,i).

    The Gamma ratio is the reciprocal of the integer product
    (2v-2i)(2v-2i+1)...(2v-1); no gamma function is evaluated.
    """
    if not 0 <= i < v:
        raise ValueError(f"needs 0 <= i < v, got v={v}, i={i}")
    left = _c2v(v, i)
    ratio_den = 1
    for t in range(2 * v - 2 * i, 2 * v):
        ratio_den *= t
    right = Fraction(4**i, ratio_den) * sym_poly(v, i)
    return IdentityReport.compare("nine", {"v": v, "i": i}, left, right)


def power_sum_from_ratios(ratios: Sequence):
    """H_{v-1,2m} from the row ratios R_j = c_{2v,v-1-j}/c_{2v,v-1}, j = 1..m.

    e_j = 4**j R_j/(2j+1)! is the jth elementary symmetric polynomial of
    {1/k^2 : k < v}, so the Newton-Girard identities give the power sums
    p_n = sum_{i<n} (-1)**(n-1+i) e_{n-i} p_i + (-1)**(n-1) n e_n.
    ``ratios`` holds R_1..R_m; Fractions or symbols both work.
    """
    e = [None] + [r * 4**j / factorial(2 * j + 1) for j, r in enumerate(ratios, 1)]
    p = [None]
    for n in range(1, len(ratios) + 1):
        total = (-1) ** (n - 1) * n * e[n]
        for i in range(1, n):
            total += (-1) ** (n - 1 + i) * e[n - i] * p[i]
        p.append(total)
    return p[-1]


def _hurwitz_rhs(v: int, m: int) -> Fraction:
    top = _c2v(v, v - 1)
    return power_sum_from_ratios([_c2v(v, v - 1 - j) / top for j in range(1, m + 1)])


def hurwitz_identity(v: int, m: int) -> IdentityReport:
    """Check H_{v-1,2m} against its ratio combination, exactly.

    Stated validity is v >= m+2.  The boundary v = m+1 still has all the
    needed row indices (down to c_{2v,0}), so it is evaluated and
    reported but flagged as not asserted.
    """
    if m < 1:
        raise ValueError(f"needs m >= 1, got {m}")
    if v < m + 1:
        raise ValueError(f"needs v >= m+1 to form the ratios, got v={v}, m={m}")
    boundary = v == m + 1
    return IdentityReport.compare(
        "hurwitz",
        {"v": v, "m": m},
        harmonic_power_sum(v, 2 * m),
        _hurwitz_rhs(v, m),
        asserted=not boundary,
        note="below stated validity (v = m+1); reported, not asserted" if boundary else "",
    )


class RiemannLimit(NamedTuple):
    estimate: Decimal
    deviation: Decimal
    bounds: tuple[Decimal, Decimal]


def riemann_limit(m: int, v: int, precision: int) -> RiemannLimit:
    """Finite-v estimate of zeta(2m) with its analytic deviation bracket.

    The estimate is the power sum T_m = zeta(2m) - zeta(2m,v), which the
    ratio combination of ``hurwitz_identity`` equals exactly, so the
    deviation from zeta(2m) is zeta(2m,v) itself, which the integral test
    pins inside

        [ v**(1-2m)/(2m-1), (v-1)**(1-2m)/(2m-1) ].

    Both ends sit about v**(-2m)/2 from zeta(2m,v) (Euler-Maclaurin:
    zeta(2m,v) = v**(1-2m)/(2m-1) + v**(-2m)/2 + ...), while the deviation
    is the difference of two values near zeta(2m) carried to precision +
    10 digits, so it is off by about 10**-(precision+9).  The bracket can
    only be told apart when that error is well below v**(-2m)/2, so
    v**(2m) >= 10**(precision+7) is refused: at the limit the margin is
    still 50 units of the working error.
    """
    if m < 1:
        raise ValueError(f"needs m >= 1, got {m}")
    if v < m + 2:
        raise ValueError(f"needs v >= m+2, got v={v}, m={m}")
    if precision < 30:
        raise ValueError(f"precision must be at least 30, got {precision}")
    if v ** (2 * m) >= 10 ** (precision + 7):
        raise ValueError(
            f"v**(2m) = {v}**{2 * m} is at least 10**(precision+7): precision "
            f"{precision} cannot resolve the deviation bracket"
        )
    estimate_exact = harmonic_power_sum(v, 2 * m)
    factor = zeta_even_factor(m)
    with localcontext(hp_context(precision)):
        pi = pi_hp(precision + 10)
        zeta_value = (
            pi ** (2 * m) * Decimal(factor.numerator) / Decimal(factor.denominator)
        )
        estimate = to_decimal(estimate_exact, precision + 10)
        deviation = zeta_value - estimate
        lower = to_decimal(Fraction(1, v ** (2 * m - 1) * (2 * m - 1)), precision + 10)
        upper = to_decimal(
            Fraction(1, (v - 1) ** (2 * m - 1) * (2 * m - 1)), precision + 10
        )
    return RiemannLimit(estimate=estimate, deviation=deviation, bounds=(lower, upper))
