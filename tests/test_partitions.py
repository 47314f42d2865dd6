"""Partition enumeration order, counts, and multiplicities."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from gencosec.partitions import enumerate_partitions, partition_count

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
    for parts, (text, mults, length) in zip(got, TABLE1_ROWS):
        assert "{" + ",".join(map(str, parts)) + "}" == text
        assert Counter(parts) == mults
        assert len(parts) == length


def test_k0_single_empty_partition():
    got = list(enumerate_partitions(0))
    assert got == [()]


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
    for parts in enumerate_partitions(k):
        assert sum(part * mult for part, mult in Counter(parts).items()) == k
        assert sum(parts) == k


@given(st.integers(min_value=1, max_value=20))
@settings(deadline=None, max_examples=20)
def test_decreasing_lex_order(k):
    seqs = list(enumerate_partitions(k))
    assert all(list(p) == sorted(p, reverse=True) for p in seqs)
    assert seqs == sorted(seqs, reverse=True)
    assert seqs[0] == (k,)
    assert seqs[-1] == (1,) * k

