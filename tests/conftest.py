"""Shared test references."""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from gencosec.exactnum import hp_context

# Signed Stirling numbers of the first kind for k = 0..STIRLING_ROWS, kept
# as the independent reference for ``stirling1`` (which reads them off the
# Pochhammer polynomials) and for the Stirling identities built on it.
STIRLING_ROWS = 60


@pytest.fixture(scope="session")
def stirling_rows():
    """Rows of the triangle by the recurrence s(k+1, j) = s(k, j-1) - k s(k, j)."""
    rows = [[1]]
    while len(rows) <= STIRLING_ROWS:
        n = len(rows) - 1
        prev = rows[-1]
        row = [0] * (n + 2)
        for i in range(n + 2):
            above = prev[i] if i <= n else 0
            left = prev[i - 1] if i >= 1 else 0
            row[i] = left - n * above
        rows.append(row)
    return rows


@pytest.fixture(scope="session")
def beta_reference():
    """``beta_alternating`` as it was before the scaled-integer terms, verbatim.

    Every term is carried as an exact Fraction and divided out in Decimal,
    so this is the byte reference for the production route.
    """

    def beta_alternating(x: Fraction, precision: int) -> Decimal:
        x = Fraction(x)
        if x <= 0:
            raise ValueError(f"argument must be positive, got {x}")
        if precision < 1:
            raise ValueError(f"precision must be positive, got {precision}")
        guard = 10
        with localcontext(hp_context(precision, guard)):
            cutoff = Fraction(1, 10 ** (precision + guard - 2))
            term = Fraction(1, 2 * x)  # n = 0
            total = Decimal(0)
            n = 0
            while term >= cutoff:
                total += Decimal(term.numerator) / Decimal(term.denominator)
                n += 1
                term *= Fraction(n, 2 * (x + n))
            return +total

    return beta_alternating
