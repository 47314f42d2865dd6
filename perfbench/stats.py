"""Order statistics for latency samples."""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

#: A tail percentile is reported only where at least this many samples lie
#: beyond it; with fewer samples than twice this, see ``tail``.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    beyond: int
    samples: int


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return statistics.median(samples)


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile that has at least ``beyond`` samples above it.

    With sorted samples x_1 <= ... <= x_n, rank i has n - i samples beyond
    it and sits at percentile 100 * i / n, so the answer is rank n - beyond.
    Where that rank would not lie above the median (n < 2 * beyond + 2),
    the upper median is used instead, and ``beyond`` reports the smaller
    count that actually lies above it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - beyond, n // 2 + 1)
    return Tail(
        value=ordered[rank - 1],
        percentile=100.0 * rank / n,
        beyond=n - rank,
        samples=n,
    )
