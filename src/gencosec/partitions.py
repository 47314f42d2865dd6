"""Integer partitions of k, enumerated and counted.

``enumerate_partitions(k)`` yields each partition as a weakly decreasing
tuple of parts, in decreasing lexicographic order, so (k,) comes first
and (1,)*k last.  The multiplicities lambda_i of the paper's Table 1 are
``collections.Counter(parts)`` and the length is ``len(parts)``.  The
order is part of the package contract: the rows ``table1`` prints follow
it, and that output is the only one that depends on it.
``partition_count(k)`` counts the partitions without enumerating them,
by Euler's pentagonal number recurrence.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

__all__ = ["enumerate_partitions", "partition_count"]


def enumerate_partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of k as part tuples, decreasing lexicographically.

    k = 0 yields exactly one empty tuple.  The successor step strips
    the trailing run of 1s, decrements the last remaining part, and
    redistributes the freed weight greedily in chunks no larger than the
    decremented part, which keeps the list weakly decreasing.
    """
    if k < 0:
        raise ValueError(f"cannot partition a negative integer, got {k}")
    if k == 0:
        yield ()
        return
    parts = [k]
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        parts[-1] -= 1
        m = parts[-1]
        rem = ones + 1
        while rem >= m:
            parts.append(m)
            rem -= m
        if rem:
            parts.append(rem)


@lru_cache(maxsize=None)
def _partition_counts_upto(n: int) -> tuple[int, ...]:
    # Euler's pentagonal number recurrence; quadratic in n overall, which
    # is cheap for the table sizes this package handles.
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 == 1 else -1
            total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            j += 1
        counts[m] = total
    return tuple(counts)


def partition_count(k: int) -> int:
    """Number of partitions of k, by the pentagonal number recurrence."""
    if k < 0:
        raise ValueError(f"cannot partition a negative integer, got {k}")
    return _partition_counts_upto(k)[k]

