"""Shared test references."""

import pytest

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
