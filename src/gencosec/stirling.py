"""Signed Stirling numbers of the first kind and their diagonal polynomials.

Two independent routes to the same integers: the triangular recurrence
``s(k+1, j) = s(k, j-1) - k * s(k, j)`` and the literal nested-sum formula
for the near-diagonal entries s_k^(k-j).  On top of these, the diagonals
fit polynomials: s_k^(k-ell) = (-1)**ell * C(k, ell+1) * r_ell(k) with
r_ell of degree ell - 1, recovered here by exact interpolation and
returned as a ``RhoPolynomial`` in the variable k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .exactnum import RhoPolynomial

__all__ = [
    "newton_coefficients",
    "r_poly",
    "stirling1",
    "stirling1_nested",
]

NESTED_MAX_OFFSET = 6
NESTED_MAX_K = 14

_rows: list[list[int]] = [[1]]


def stirling1(k: int, j: int) -> int:
    """Signed Stirling number of the first kind by the recurrence.

    Rows are cached and grown on demand.  Out-of-triangle requests
    (j < 0 or j > k) return 0, matching the empty-sum convention.
    """
    if k < 0:
        raise ValueError(f"row index must be nonnegative, got {k}")
    while len(_rows) <= k:
        n = len(_rows) - 1
        prev = _rows[-1]
        row = [0] * (n + 2)
        for i in range(n + 2):
            above = prev[i] if i <= n else 0
            left = prev[i - 1] if i >= 1 else 0
            row[i] = left - n * above
        _rows.append(row)
    if j < 0 or j > k:
        return 0
    return _rows[k][j]


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

    Kept deliberately literal (no memoization) as a cross-check on the
    recurrence, so it is only allowed in a small range.
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


VALIDATE_K_MAX = 40


def r_poly(ell: int) -> RhoPolynomial:
    """Recover r_ell, the degree ell-1 polynomial in k with
    s_k^(k-ell) = (-1)**ell * C(k, ell+1) * r_ell(k), and validate it.

    Interpolates at the ell nodes k = ell+1 .. 2*ell (the first k with a
    nonzero diagonal entry onward) and then checks the defining identity
    for every k up to VALIDATE_K_MAX before returning.
    """
    if not 1 <= ell <= 10:
        raise ValueError(f"ell must be in 1..10, got {ell}")
    sign = -1 if ell % 2 else 1
    points = []
    for k in range(ell + 1, 2 * ell + 1):
        value = Fraction(sign * stirling1(k, k - ell), comb(k, ell + 1))
        points.append((Fraction(k), value))
    poly = RhoPolynomial(newton_coefficients(points))
    for k in range(ell + 1, VALIDATE_K_MAX + 1):
        if sign * comb(k, ell + 1) * poly(k) != stirling1(k, k - ell):
            raise RuntimeError(
                f"interpolated r_{ell} fails the defining identity at k={k}"
            )
    return poly
