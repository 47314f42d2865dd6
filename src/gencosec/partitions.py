"""Integer partitions in the fixed order used by the series transforms.

Partitions of k are enumerated as weakly decreasing part lists in
decreasing lexicographic order, so [k] comes first and [1]*k last.  That
order is part of the package contract: the rows ``table1`` prints follow
it, and that output is the only one that depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = [
    "PartitionMultiset",
    "enumerate_partitions",
    "partition_count",
]


@dataclass(frozen=True)
class PartitionMultiset:
    """A partition stored sparsely as (part, multiplicity) pairs.

    ``counts`` holds only parts with nonzero multiplicity, largest part
    first, matching the part-list orientation.  ``weight`` is the number
    being partitioned and must equal sum(part * mult).
    """

    weight: int
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be nonnegative, got {self.weight}")
        total = 0
        prev = None
        for part, mult in self.counts:
            if part < 1 or mult < 1:
                raise ValueError(f"invalid entry ({part}, {mult})")
            if prev is not None and part >= prev:
                raise ValueError("counts must be strictly decreasing by part")
            prev = part
            total += part * mult
        if total != self.weight:
            raise ValueError(f"parts sum to {total}, expected {self.weight}")

    @classmethod
    def from_parts(cls, parts: Sequence[int]) -> "PartitionMultiset":
        """Build from a weakly decreasing part list such as [3, 2, 1]."""
        counts: list[tuple[int, int]] = []
        for p in parts:
            if counts and counts[-1][0] == p:
                counts[-1] = (p, counts[-1][1] + 1)
            else:
                counts.append((p, 1))
        return cls(weight=sum(parts), counts=tuple(counts))

    @property
    def length(self) -> int:
        """Total number of parts, multiplicities included."""
        return sum(m for _, m in self.counts)

    def parts(self) -> tuple[int, ...]:
        """Expanded weakly decreasing part list."""
        out: list[int] = []
        for p, m in self.counts:
            out.extend([p] * m)
        return tuple(out)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.parts()) + "}"


def enumerate_partitions(k: int) -> Iterator[PartitionMultiset]:
    """Yield all partitions of k in decreasing lexicographic order.

    k = 0 yields exactly one empty partition.  The successor step strips
    the trailing run of 1s, decrements the last remaining part, and
    redistributes the freed weight greedily in chunks no larger than the
    decremented part, which keeps the list weakly decreasing.
    """
    if k < 0:
        raise ValueError(f"cannot partition a negative integer, got {k}")
    if k == 0:
        yield PartitionMultiset(weight=0, counts=())
        return
    parts = [k]
    while True:
        yield PartitionMultiset.from_parts(parts)
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

