"""Closed forms, approximations and asymptotics for row coefficients.

C_{k,i} denotes the coefficient of rho**i in the cosecant row of order k.
The highest-order coefficients have closed forms in k: for every ell >= 1,
C_{k,k-ell} = g_ell(k) / (6**k (k-ell-1)!) with g_ell a polynomial of
degree ell - 1.  ``closed_form`` derives g_ell from the rows and
``leading_closed`` evaluates it, for ell up to ``stirling.ELL_MAX``.
Truncating the row to its four highest terms approximates the whole
polynomial for |rho| >> k (``approx_cosecant_exact``), and the ratio of
the truncation to the exact value is the accuracy measure tabulated by
``beta_ratio``.  The v-1 row value at rho = 2v has its own family of
closed and asymptotic forms (``c2v_vm1_*``).
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, Inexact
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Union

from .exactnum import RhoPolynomial, hp_context, pi_hp, poly_eval, to_decimal
from .genseries import gen_cosecant
from .stirling import ELL_MAX, fit_polynomial

__all__ = [
    "ASYMPTOTIC_VARIANTS",
    "approx_cosecant_exact",
    "beta_alternating",
    "beta_ratio",
    "beta_ratio_exact",
    "c2v_vm1_asymptotic",
    "c2v_vm1_beta",
    "c2v_vm1_sum",
    "closed_form",
    "coefficient",
    "leading_closed",
    "truncate_decimal_string",
]

RationalLike = Union[int, Fraction]


def coefficient(k: int, i: int) -> Fraction:
    """C_{k,i}, the coefficient of rho**i in cosecant row k."""
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    if not 0 <= i <= k:
        raise ValueError(f"power must be in 0..{k}, got {i}")
    return gen_cosecant(k).coefficient(i)


@lru_cache(maxsize=None)
def closed_form(ell: int) -> RhoPolynomial:
    """g_ell, the polynomial in k with C_{k,k-ell} = g_ell(k) / (6**k (k-ell-1)!).

    g_ell has degree ell - 1 (the diagonals of the rows are Stirling-type
    polynomials in k).  Derived from the rows: interpolated at the ell
    nodes k = ell+1 .. 2*ell and checked against the rows at the next ell
    orders, k = 2*ell+1 .. 3*ell, so ell <= ELL_MAX reads no row above
    k = 3*ELL_MAX.
    """
    if not 1 <= ell <= ELL_MAX:
        raise ValueError(f"ell must be in 1..{ELL_MAX}, got {ell}")
    return fit_polynomial(
        lambda k: coefficient(k, k - ell) * 6**k * factorial(k - ell - 1),
        range(ell + 1, 2 * ell + 1),
        3 * ell,
        f"g_{ell}",
    )


def leading_closed(k: int, ell: int) -> Fraction:
    """Closed form for C_{k,k-ell}, available for ell = 0..ELL_MAX and k > ell.

    ell = 0 gives the leading coefficient 1/(6**k k!); each deeper level
    divides by one less factorial and picks up the polynomial
    ``closed_form(ell)`` in k.
    """
    if not 0 <= ell <= ELL_MAX:
        raise ValueError(f"no closed form for ell={ell}; available: 0..{ELL_MAX}")
    if k < ell + 1:
        raise ValueError(f"closed form for ell={ell} starts at k={ell + 1}, got {k}")
    if ell == 0:
        return Fraction(1, 6**k * factorial(k))
    return poly_eval(closed_form(ell), k) / (6**k * factorial(k - ell - 1))


def approx_cosecant_exact(rho: RationalLike, k: int) -> Fraction:
    """Four-term large-|rho| approximation of the cosecant row, exactly.

    Sums leading_closed(k, ell) * rho**(k-ell) for ell = 0..3.  Exact in
    the sense that the truncation itself is evaluated without rounding;
    it approximates the full row only when |rho| >> k.
    """
    if k < 4:
        raise ValueError(f"needs k >= 4, got {k}")
    x = Fraction(rho)
    return sum(
        (leading_closed(k, ell) * x ** (k - ell) for ell in range(4)),
        Fraction(0),
    )


def beta_ratio_exact(rho: RationalLike, k: int) -> Fraction:
    """Ratio of the four-term approximation to the exact row value.

    Strictly below 1 for rho > 0: every row coefficient is positive, so
    dropping terms can only lose mass.
    """
    x = Fraction(rho)
    if x < 1:
        raise ValueError(f"rho must be at least 1, got {rho}")
    if k < 4:
        raise ValueError(f"needs k >= 4, got {k}")
    return approx_cosecant_exact(x, k) / poly_eval(gen_cosecant(k), x)


def truncate_decimal_string(q: Fraction, places: int = 6) -> str:
    """Decimal expansion of q >= 0 cut after ``places`` digits, no rounding."""
    if q < 0:
        raise ValueError("negative values are not truncated here")
    scaled = (q.numerator * 10**places) // q.denominator
    return f"{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def beta_ratio(rho: RationalLike, k: int) -> str:
    """beta(rho, k) truncated to six decimal places, as printed."""
    return truncate_decimal_string(beta_ratio_exact(rho, k), places=6)


# ---------------------------------------------------------------------------
# The rho = 2v value of row v-1: closed forms and asymptotics.


def c2v_vm1_beta(v: int) -> Fraction:
    """c_{2v,v-1} = B(v, 1/2) / 2, rationalized.

    B(v, 1/2)/2 = 4**v (v-1)! v! / (2 (2v)!); the half-integer gamma
    functions cancel into factorials.
    """
    if v < 2:
        raise ValueError(f"needs v >= 2, got {v}")
    return Fraction(4**v * factorial(v - 1) * factorial(v), 2 * factorial(2 * v))


def c2v_vm1_sum(v: int) -> Fraction:
    """c_{2v,v-1} as the alternating binomial sum

    2**(2-2v) * sum_{j=0}^{v-1} (-1)**(v-j-1) C(2v-1, j) / (2v-2j-1).
    """
    if v < 1:
        raise ValueError(f"needs v >= 1, got {v}")
    total = Fraction(0)
    for j in range(v):
        sign = 1 if (v - j - 1) % 2 == 0 else -1
        total += Fraction(sign * comb(2 * v - 1, j), 2 * v - 2 * j - 1)
    return Fraction(2 ** (2 - 2 * v)) * total


# Exact integer Decimal arithmetic: no integer result is rounded at
# MAX_PREC, and a step that would round raises Inexact instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT.traps[Inexact] = True
_HALF, _TWO = Decimal("0.5"), Decimal(2)


def _round_scaled(scaled: Decimal, width: int, context: Context) -> Decimal | None:
    """t rounded in ``context``, given only that t * 10**width is in [scaled, scaled+2).

    The result is ``context.divide`` applied to t's numerator and
    denominator.  None when the interval holds a half-way point or a
    number of at most ``context.prec`` digits (the two ends may round
    differently, or t may be exact and printed short).  Runs in ``_EXACT``.
    """
    drop = scaled.adjusted() + 1 - context.prec
    head = scaled.scaleb(-drop)
    digits = head.to_integral_value(ROUND_FLOOR)
    low = head - digits
    high = low + _TWO.scaleb(-drop)
    if low == 0 or high > 1 or low <= _HALF < high:
        return None
    if low > _HALF:
        digits += 1
    return digits.scaleb(drop - width, context)


def _beta_term(a: int, b: int, n: int) -> Fraction:
    """t_n = n! / (2**(n+1) (x)_{n+1}) exactly, for x = a/b."""
    return Fraction(
        factorial(n) * b ** (n + 1),
        2 ** (n + 1) * prod(range(a, a + (n + 1) * b, b)),
    )


def beta_alternating(x: Fraction, precision: int) -> Decimal:
    """Dirichlet-style alternating sum beta(x) = sum_{j>=0} (-1)**j / (x+j).

    Summing the alternating series directly needs about 10**precision
    terms, so this uses the equivalent all-positive expansion

        beta(x) = sum_{n>=0} t_n,  t_n = n! / (2**(n+1) * (x)_{n+1}),

    whose term ratio t_n/t_{n-1} = n/(2(x+n)) stays below 1/2, giving a
    tail bounded by the last included term and roughly 3.3 terms per
    digit.  Terms down to 10**(2-prec) are summed, each rounded to prec =
    precision + 10 digits, exactly as if divided out from the exact term.

    The terms are not carried exactly.  With x = a/b and W = 2 prec + 30,
    the integer T_n = floor(T_{n-1} n b / (2 (a + n b))), starting from
    T_0 = floor(b 10**W / (2a)), satisfies T_n <= t_n 10**W < T_n + 2: each
    floor loses less than 1, and the ratio below 1/2 halves the error
    carried in.  Every included term keeps at least prec + 32 digits in
    T_n, so rounding T_n gives the correctly rounded t_n unless the
    two-unit band straddles a half-way point or a short exact decimal
    (Ziv's rounding test, ACM TOMS 17(3), 1991).  Only then, or when the
    band straddles the cutoff, is the exact t_n formed; for a band of 2
    in at least 32 dropped digits that almost never happens.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    if precision < 1:
        raise ValueError(f"precision must be positive, got {precision}")
    context = hp_context(precision, 10)
    prec = context.prec
    width = 2 * prec + 30
    a, b = x.numerator, x.denominator
    with localcontext(_EXACT):
        cutoff = Decimal(1).scaleb(width - prec + 2)
        big_a, big_b = Decimal(a), Decimal(b)
        scaled = big_b.scaleb(width) // (2 * big_a)  # n = 0
        total = Decimal(0)
        n = 0
        while scaled + 2 > cutoff:
            term = _round_scaled(scaled, width, context)
            if term is None:
                exact = _beta_term(a, b, n)
                if exact < Fraction(1, 10 ** (prec - 2)):
                    break
                term = context.divide(Decimal(exact.numerator), Decimal(exact.denominator))
            total = context.add(total, term)
            n += 1
            scaled = scaled * (n * big_b) // (2 * (big_a + n * big_b))
        return context.plus(total)


ASYMPTOTIC_VARIANTS = ("printed", "beta_flipped", "two_term")


def c2v_vm1_asymptotic(
    v: int,
    precision: int,
    leading_only: bool = False,
    variant: str = "printed",
) -> Decimal:
    """Large-v approximation to c_{2v,v-1}: prefactor times a bracket.

    The prefactor is 2**(2-2v) C(2v-1, v).  Variants of the bracket:

    - "printed": pi/4 + (-1)**(v-1) beta(v+1/2)/2 + (-1)**(v-1) floor(v/2)/(2v)
      - 5(1-(-1)**v)/(8v) + (3/(4v)) (-1)**(v-1) beta(v+1/2)/2, exactly as
      the source prints it.  The floor term is an alternating O(1)
      contribution (floor(v/2)/(2v) -> 1/4), so the relative error of
      this form settles near 0.32 instead of vanishing; at fixed parity
      it still decreases monotonically.
    - "beta_flipped": same with the two beta terms negated, the other
      reading of the ambiguous sign grouping.  Also plateaus.
    - "two_term": pi/4 * (1 + 1/(4v)), the bracket the exact values
      actually approach; its relative error falls off like 1/v**2.

    ``leading_only`` keeps just the pi/4 term, whose relative error
    decays like 1/v.
    """
    if variant not in ASYMPTOTIC_VARIANTS:
        raise ValueError(f"variant must be one of {ASYMPTOTIC_VARIANTS}, got {variant!r}")
    if v < 2:
        raise ValueError(f"needs v >= 2, got {v}")
    if precision < 30:
        raise ValueError(f"precision must be at least 30, got {precision}")
    prefactor = Fraction(comb(2 * v - 1, v), 2 ** (2 * v - 2))
    sign = 1 if (v - 1) % 2 == 0 else -1
    if variant == "beta_flipped":
        beta_sign = -sign
    else:
        beta_sign = sign
    with localcontext(hp_context(precision)):
        pi = pi_hp(precision)
        bracket = pi / 4
        if not leading_only:
            if variant == "two_term":
                bracket += pi / (16 * v)
            else:
                half_beta = beta_alternating(Fraction(2 * v + 1, 2), precision) / 2
                bracket += beta_sign * half_beta
                bracket += to_decimal(Fraction(sign * (v // 2), 2 * v), precision + 10)
                bracket -= to_decimal(Fraction(5 * (1 - (-1) ** v), 8 * v), precision + 10)
                bracket += Decimal(3) / (4 * v) * beta_sign * half_beta
        return (
            bracket
            * Decimal(prefactor.numerator)
            / Decimal(prefactor.denominator)
        )
