"""Signed Stirling numbers of the first kind and their diagonal polynomials.

``stirling1`` reads s(k, j) off the rising factorial (rho)_k, whose
coefficients are the unsigned numbers; the literal nested-sum formula for
the near-diagonal entries s_k^(k-j) is an independent route to the same
integers.  On top of these, the diagonals fit polynomials:
s_k^(k-ell) = (-1)**ell * C(k, ell+1) * r_ell(k) with r_ell of degree
ell - 1, recovered here by exact interpolation (``fit_polynomial``, which
``coeffs.closed_form`` shares) and returned as a ``RhoPolynomial`` in the
variable k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Sequence

from .exactnum import RhoPolynomial, pochhammer_poly

__all__ = [
    "ELL_MAX",
    "fit_polynomial",
    "newton_coefficients",
    "r_poly",
    "stirling1",
    "stirling1_nested",
]

NESTED_MAX_OFFSET = 6
NESTED_MAX_K = 14

#: Deepest diagonal ell that ``r_poly`` and ``coeffs.closed_form`` derive.
ELL_MAX = 10


def stirling1(k: int, j: int) -> int:
    """Signed Stirling number of the first kind, s(k, j).

    (-1)**(k-j) times the coefficient of rho**j in (rho)_k.  Out-of-triangle
    requests (j < 0 or j > k) return 0, matching the empty-sum convention.
    """
    if k < 0:
        raise ValueError(f"row index must be nonnegative, got {k}")
    if j < 0 or j > k:
        return 0
    unsigned = int(pochhammer_poly(k).coefficient(j))
    return -unsigned if (k - j) % 2 else unsigned


def _nested_sum(depth: int, upper: int) -> int:
    if depth == 0:
        return 1
    return sum(i * _nested_sum(depth - 1, i - 1) for i in range(depth, upper + 1))


def stirling1_nested(k: int, offset: int) -> int:
    """s_k^(k-offset) from the explicit nested-sum formula.

    The sum nests ``offset`` levels, the outermost index running from
    offset to k-1 and each inner index strictly below its successor:

        s_k^(k-j) = (-1)**j * sum_{i_j=j}^{k-1} i_j
                    * sum_{i_{j-1}=j-1}^{i_j - 1} i_{j-1} * ... * sum i_1.

    Kept deliberately literal (no memoization) as a cross-check on
    ``stirling1``, so it is only allowed in a small range.
    """
    if not 1 <= offset <= NESTED_MAX_OFFSET:
        raise ValueError(f"offset must be in 1..{NESTED_MAX_OFFSET}, got {offset}")
    if not 1 <= k <= NESTED_MAX_K:
        raise ValueError(f"k must be in 1..{NESTED_MAX_K}, got {k}")
    sign = -1 if offset % 2 else 1
    return sign * _nested_sum(offset, k - 1)


def newton_coefficients(
    points: Sequence[tuple[Fraction, Fraction]]
) -> list[Fraction]:
    """Dense ascending coefficients of the interpolating polynomial.

    Exact Newton divided differences over the rationals; the x values
    must be pairwise distinct.
    """
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form into monomial coefficients: the running
    # polynomial R becomes divided[i] + (x - xs[i]) * R at each step
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        for d in range(n - 1, 0, -1):
            coeffs[d] = coeffs[d - 1] - xs[i] * coeffs[d]
        coeffs[0] = divided[i] - xs[i] * coeffs[0]
    return coeffs


def fit_polynomial(
    value: Callable[[int], Fraction], nodes: range, check_to: int, name: str
) -> RhoPolynomial:
    """The polynomial in k through ``value`` at ``nodes``, checked beyond them.

    Interpolates exactly at the integer nodes, so the result has degree
    below ``len(nodes)``, then compares it with ``value(k)`` at every k from
    the end of the nodes through ``check_to`` and raises ``RuntimeError``
    naming ``name`` at the first k where they differ.
    """
    points = [(Fraction(k), Fraction(value(k))) for k in nodes]
    poly = RhoPolynomial(newton_coefficients(points))
    for k in range(nodes.stop, check_to + 1):
        if poly(k) != value(k):
            raise RuntimeError(f"interpolated {name} fails its check at k={k}")
    return poly


VALIDATE_K_MAX = 40


def r_poly(ell: int) -> RhoPolynomial:
    """Recover r_ell, the degree ell-1 polynomial in k with
    s_k^(k-ell) = (-1)**ell * C(k, ell+1) * r_ell(k), and validate it.

    Interpolates at the ell nodes k = ell+1 .. 2*ell (the first k with a
    nonzero diagonal entry onward) and then checks the defining identity
    for every k up to VALIDATE_K_MAX before returning.
    """
    if not 1 <= ell <= ELL_MAX:
        raise ValueError(f"ell must be in 1..{ELL_MAX}, got {ell}")
    sign = -1 if ell % 2 else 1
    return fit_polynomial(
        lambda k: Fraction(sign * stirling1(k, k - ell), comb(k, ell + 1)),
        range(ell + 1, 2 * ell + 1),
        VALIDATE_K_MAX,
        f"r_{ell}",
    )
