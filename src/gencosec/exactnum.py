"""Exact scalar and polynomial arithmetic used by every other module.

Two number layers live here.  The exact layer is ``fractions.Fraction``:
always reduced, positive denominator, hashable, and safe to compare with
``==``.  The high-precision layer is ``decimal.Decimal`` driven through an
explicit context so that a requested precision of P digits always carries
guard digits internally; nothing in this package touches binary floats.

``RhoPolynomial`` is a dense polynomial in a single formal variable rho
with Fraction coefficients, used for quantities that are polynomials in
the order rho of a series power.  It is the package's only polynomial
type: polynomials in the order k (the Stirling ratios r_ell, the
closed-form numerators) use it too.  It supports exactly what the
package needs: coefficient access, ``==``, ``+``, ``scale`` by a
rational, ``times_rho`` and evaluation, where ``poly_eval`` is the one
Horner loop.  There is no general product: the one polynomial product
the package forms, the rising factorial (rho)_n, is ``pochhammer_poly``,
built on integers one factor (rho + m) at a time.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

__all__ = [
    "GUARD_DIGITS",
    "RhoPolynomial",
    "frac_to_str",
    "hp_context",
    "pi_hp",
    "pochhammer_poly",
    "poly_eval",
    "to_decimal",
]

RationalLike = Union[int, Fraction]

#: Minimum number of extra decimal digits carried beyond a requested
#: precision P.  Long operation chains scale this up at the call site.
GUARD_DIGITS = 10


def frac_to_str(q: Fraction) -> str:
    """Render a Fraction as ``"num/den"`` with an explicit denominator.

    The denominator is printed even when it is 1 so that serialized values
    round-trip without a separate integer case.
    """
    return f"{q.numerator}/{q.denominator}"


class RhoPolynomial:
    """Immutable dense polynomial in rho over the rationals.

    Coefficients are stored ascending by power and normalized: trailing
    zero coefficients are trimmed, and the zero polynomial is the single
    coefficient list ``[0]``.  Equality is coefficient-wise, which the
    normalization makes well defined.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "RhoPolynomial":
        return cls([0])

    @classmethod
    def one(cls) -> "RhoPolynomial":
        return cls([1])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Highest stored power; the zero polynomial reports degree 0."""
        return len(self._coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of rho**i, 0 for any i beyond the stored degree."""
        if i < 0:
            raise ValueError(f"power must be nonnegative, got {i}")
        if i >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RhoPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "RhoPolynomial") -> "RhoPolynomial":
        if not isinstance(other, RhoPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RhoPolynomial(out)

    def scale(self, factor: RationalLike) -> "RhoPolynomial":
        f = Fraction(factor)
        return RhoPolynomial([c * f for c in self._coeffs])

    def times_rho(self) -> "RhoPolynomial":
        """Multiply by the monomial rho (shift all powers up by one)."""
        if self._coeffs == (Fraction(0),):
            return self
        return RhoPolynomial((Fraction(0),) + self._coeffs)

    def __call__(self, rho: RationalLike) -> Fraction:
        return poly_eval(self, rho)

    def __repr__(self) -> str:
        return f"RhoPolynomial({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        """Readable sum of terms, such as ``1/2 + 3*rho^2``.

        The variable is always printed as ``rho``, also for the polynomials
        in the order k (``r_poly``, ``closed_form``), whose terms must be
        read with k in place of rho.
        """
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0 and not (i == 0 and len(self._coeffs) == 1):
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*rho")
            else:
                parts.append(f"{c}*rho^{i}")
        return " + ".join(parts) if parts else "0"


def poly_eval(poly: RhoPolynomial, rho: RationalLike) -> Fraction:
    """Evaluate exactly at a rational point by Horner's rule."""
    x = Fraction(rho)
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def pochhammer_poly(n: int) -> RhoPolynomial:
    """Rising factorial (rho)_n = rho (rho+1) ... (rho+n-1) as a polynomial.

    (rho)_0 is the constant 1.  The coefficient of rho**j is the unsigned
    Stirling number of the first kind with arguments (n, j).  The product
    is formed on integers, one factor (rho + m) at a time, so any order
    works without recursion.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    coeffs = [1]
    for m in range(n):
        # times (rho + m): the new rho**i coefficient is m c_i + c_{i-1}
        coeffs = [m * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    return RhoPolynomial(coeffs)


# ---------------------------------------------------------------------------
# High-precision decimal layer.


def hp_context(precision: int, guard: int = GUARD_DIGITS) -> Context:
    """A Decimal context carrying ``precision + guard`` significant digits."""
    if precision < 1:
        raise ValueError(f"precision must be positive, got {precision}")
    if guard < 0:
        raise ValueError(f"guard digits must be nonnegative, got {guard}")
    return Context(prec=precision + guard)


def to_decimal(q: RationalLike, precision: int) -> Decimal:
    """Convert a rational to a Decimal rounded to ``precision`` digits."""
    q = Fraction(q)
    with localcontext(Context(prec=precision)):
        return Decimal(q.numerator) / Decimal(q.denominator)


def _arctan_inv_scaled(m: int, scale: int) -> int:
    # arctan(1/m) * scale, truncated integer arithmetic.  Each floor
    # division loses less than one unit of the scale, and the alternating
    # tail is bounded by the first dropped term, so the total error stays
    # below (number of terms + 1) units.
    power = scale // m
    total = power
    mm = m * m
    n = 1
    sign = -1
    while power:
        power //= mm
        total += sign * (power // (2 * n + 1))
        sign = -sign
        n += 1
    return total


@lru_cache(maxsize=None)
def pi_hp(precision: int) -> Decimal:
    """Pi to ``precision`` significant digits.

    Machin's relation pi = 16 arctan(1/5) - 4 arctan(1/239) evaluated in
    scaled integer arithmetic.  The working scale carries 25 digits beyond
    the request, far more than the accumulated truncation error, so the
    returned value is correctly rounded to within one unit in the last
    digit.
    """
    if precision < 1:
        raise ValueError(f"precision must be positive, got {precision}")
    work = precision + 25
    scale = 10**work
    pi_scaled = 16 * _arctan_inv_scaled(5, scale) - 4 * _arctan_inv_scaled(239, scale)
    with localcontext(Context(prec=precision)):
        return Decimal(pi_scaled) / Decimal(scale)
