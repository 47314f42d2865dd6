"""Partition enumeration order, counts, and multiset bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from gencosec.partitions import (
    PartitionMultiset,
    enumerate_partitions,
    partition_count,
)

# the printed multiplicity table for k = 6, in enumeration order
TABLE1_ROWS = [
    ("{6}", {6: 1}, 1),
    ("{5,1}", {1: 1, 5: 1}, 2),
    ("{4,2}", {2: 1, 4: 1}, 2),
    ("{4,1,1}", {1: 2, 4: 1}, 3),
    ("{3,3}", {3: 2}, 2),
    ("{3,2,1}", {1: 1, 2: 1, 3: 1}, 3),
    ("{3,1,1,1}", {1: 3, 3: 1}, 4),
    ("{2,2,2}", {2: 3}, 3),
    ("{2,2,1,1}", {1: 2, 2: 2}, 4),
    ("{2,1,1,1,1}", {1: 4, 2: 1}, 5),
    ("{1,1,1,1,1,1}", {1: 6}, 6),
]


def test_order_and_content_for_k6():
    got = list(enumerate_partitions(6))
    assert len(got) == 11
    for pm, (text, mults, length) in zip(got, TABLE1_ROWS):
        assert str(pm) == text
        assert dict(pm.counts) == mults
        assert pm.length == length


def test_k0_single_empty_partition():
    got = list(enumerate_partitions(0))
    assert len(got) == 1
    assert got[0].length == 0
    assert got[0].parts() == ()


@given(st.integers(min_value=0, max_value=40))
@settings(deadline=None, max_examples=41)
def test_count_matches_pentagonal_recurrence(k):
    assert len(list(enumerate_partitions(k))) == partition_count(k)


def test_known_counts():
    assert partition_count(7) == 15
    assert partition_count(50) == 204226
    assert partition_count(100) == 190569292


@given(st.integers(min_value=1, max_value=25))
@settings(deadline=None, max_examples=25)
def test_each_partition_sums_to_k(k):
    for pm in enumerate_partitions(k):
        assert pm.weight == k
        assert sum(part * mult for part, mult in pm.counts) == k
        assert sum(pm.parts()) == k


@given(st.integers(min_value=1, max_value=20))
@settings(deadline=None, max_examples=20)
def test_decreasing_lex_order(k):
    seqs = [pm.parts() for pm in enumerate_partitions(k)]
    assert seqs == sorted(seqs, reverse=True)
    assert seqs[0] == (k,)
    assert seqs[-1] == (1,) * k


def test_from_parts_run_length_encodes():
    pm = PartitionMultiset.from_parts([3, 2, 1, 1])
    assert str(pm) == "{3,2,1,1}"
    # input must already be weakly decreasing
    with pytest.raises(ValueError):
        PartitionMultiset.from_parts([1, 3, 1, 2])


def test_validation_rejects_bad_multisets():
    with pytest.raises(ValueError):
        PartitionMultiset(weight=3, counts=((1, 2),))  # weight mismatch
    with pytest.raises(ValueError):
        PartitionMultiset(weight=4, counts=((1, 2), (2, 1)))  # parts not decreasing
    with pytest.raises(ValueError):
        PartitionMultiset(weight=2, counts=((2, 0),))  # zero multiplicity

