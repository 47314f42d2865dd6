"""Symmetric polynomials, the row identity, and zeta ratio identities."""

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gencosec.exactnum import to_decimal
from gencosec.partitions import enumerate_partitions
from gencosec.symzeta import (
    IdentityReport,
    _hurwitz_rhs,
    harmonic_power_sum,
    hurwitz_identity,
    identity_nine,
    power_sum_from_ratios,
    riemann_limit,
    sym_high_partition,
    sym_poly,
)


class TestSymPoly:
    def test_quoted_values(self):
        assert sym_poly(5, 1) == 30  # 1 + 4 + 9 + 16
        assert sym_poly(4, 2) == 49
        assert sym_poly(1, 0) == 1

    @given(st.integers(min_value=2, max_value=12))
    @settings(deadline=None, max_examples=11)
    def test_newton_recurrence(self, v):
        squares = [j * j for j in range(1, v)]
        power = [None] + [
            Fraction(sum(x**j for x in squares)) for j in range(1, v)
        ]
        elem = [Fraction(1)]
        for n in range(1, v):
            acc = sum(
                ((-1) ** (j - 1) * elem[n - j] * power[j] for j in range(1, n + 1)),
                Fraction(0),
            )
            elem.append(acc / n)
        for n in range(v):
            assert elem[n] == sym_poly(v, n)

    @given(st.integers(min_value=2, max_value=15))
    @settings(deadline=None, max_examples=14)
    def test_table_invariants(self, v):
        assert sym_poly(v, 0) == 1
        assert sym_poly(v, v - 1) == factorial(v - 1) ** 2
        assert all(sym_poly(v, n) > 0 for n in range(v))

    def test_bounds(self):
        with pytest.raises(ValueError):
            sym_poly(0, 0)
        with pytest.raises(ValueError):
            sym_poly(4, 4)


def sym_closed_low(v: int, n: int) -> Fraction:
    """Closed forms for the three lowest-order symmetric polynomials.

    s(v,0) = 1, s(v,1) = (v-1)v(2v-1)/6, and s(v,2) as (5v+1)/(4*6!)
    times the rising factorial (2v-4)_5.
    """
    if v < 2:
        raise ValueError(f"needs v >= 2, got {v}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction((v - 1) * v * (2 * v - 1), 6)
    if n == 2:
        if v < 3:
            raise ValueError("s(v,2) requires v >= 3")
        rising = 1
        for t in range(2 * v - 4, 2 * v + 1):
            rising *= t
        return Fraction((5 * v + 1) * rising, 4 * factorial(6))
    raise ValueError(f"no closed form for n={n}; available: 0, 1, 2")


class TestClosedLow:
    def test_matches_product(self):
        for v in range(2, 25):
            assert sym_closed_low(v, 0) == sym_poly(v, 0)
            assert sym_closed_low(v, 1) == sym_poly(v, 1)
            if v >= 3:
                assert sym_closed_low(v, 2) == sym_poly(v, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            sym_closed_low(2, 2)
        with pytest.raises(ValueError):
            sym_closed_low(5, 3)


def literal_partition_sum(v, ell):
    """s(v, v-ell) as the cycle-index sum over the partitions of ell-1.

    Removing the all-distinct constraint from the defining sum leaves one
    term per partition of ell-1:

        s(v,v-ell) = ((v-1)!)**2 * sum over partitions of ell-1 of
                     (-1)**((ell-1) - N) * prod_m T_m**lam_m / (lam_m! m**lam_m)

    with N the partition length and T_m = sum_{j<v} j**(-2m).
    """
    total = Fraction(0)
    for parts in enumerate_partitions(ell - 1):
        term = Fraction(1)
        for part, mult in Counter(parts).items():
            t = sum((Fraction(1, j ** (2 * part)) for j in range(1, v)), Fraction(0))
            term *= t**mult
            term /= factorial(mult) * part**mult
        if (ell - 1 - len(parts)) % 2:
            term = -term
        total += term
    return factorial(v - 1) ** 2 * total


class TestSymHigh:
    def test_agrees_with_product(self):
        for v in range(1, 16):
            for ell in range(1, min(v, 6) + 1):
                assert sym_high_partition(v, ell) == sym_poly(v, v - ell), (v, ell)

    def test_matches_literal_partition_sum(self):
        # Newton's identities vs the cycle-index sum and the product
        for v in range(1, 31):
            for ell in range(1, min(v, 12) + 1):
                want = sym_poly(v, v - ell)
                assert sym_high_partition(v, ell) == want, (v, ell)
                assert literal_partition_sum(v, ell) == want, (v, ell)

    def test_domain(self):
        with pytest.raises(ValueError):
            sym_high_partition(3, 4)
        with pytest.raises(ValueError):
            sym_high_partition(3, 0)


class TestPowerSums:
    def test_quoted_values(self):
        assert harmonic_power_sum(3, 2) == Fraction(5, 4)
        assert harmonic_power_sum(2, 10) == 1
        assert harmonic_power_sum(5, 2) == Fraction(205, 144)

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic_power_sum(1, 2)
        with pytest.raises(ValueError):
            harmonic_power_sum(5, 3)
        with pytest.raises(ValueError):
            harmonic_power_sum(5, 0)
        assert harmonic_power_sum(3, 12) == 1 + Fraction(1, 2**12)

    def test_exactness(self):
        got = harmonic_power_sum(6, 2)
        assert isinstance(got, Fraction)
        assert got == 1 + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16) + Fraction(1, 25)
        assert harmonic_power_sum(6, 6) == sum(Fraction(1, j**6) for j in range(1, 6))

    def test_common_denominator_equals_literal_sum(self):
        for v in range(2, 61):
            for r in range(2, 13, 2):
                literal = sum(Fraction(1, j**r) for j in range(1, v))
                assert harmonic_power_sum(v, r) == literal, (v, r)


def test_compare_reports_both_sides_and_their_equality():
    report = IdentityReport.compare("demo", {"k": 1}, Fraction(1, 2), Fraction(2, 4))
    assert (report.left, report.right, report.equal, report.asserted) == ("1/2", "1/2", True, True)
    report = IdentityReport.compare("demo", {}, 1, Fraction(3, 2), asserted=False, note="n")
    assert (report.left, report.right, report.equal) == ("1", "3/2", False)
    assert (report.asserted, report.note) == (False, "n")


class TestIdentityNine:
    def test_quoted_instances(self):
        rep = identity_nine(5, 4)
        assert rep.equal and rep.left == "128/315"
        rep = identity_nine(3, 1)
        assert rep.equal and rep.left == "1"

    def test_sweep(self):
        for v in range(1, 13):
            for i in range(v):
                rep = identity_nine(v, i)
                assert rep.equal, rep.params
                if i == 0:
                    assert rep.left == "1"

    def test_domain(self):
        with pytest.raises(ValueError):
            identity_nine(4, 4)


class TestHurwitz:
    def test_quoted_instance(self):
        rep = hurwitz_identity(3, 1)
        assert rep.equal and rep.left == "5/4" == rep.right
        assert rep.asserted

    def test_boundary_reported_not_asserted(self):
        rep = hurwitz_identity(2, 1)
        assert not rep.asserted
        assert rep.note
        assert rep.left == "1" == rep.right  # happens to hold at the boundary

    def test_high_order_instance(self):
        rep = hurwitz_identity(10, 4)
        assert rep.equal and rep.asserted

    def test_sweep(self):
        for m in range(1, 6):
            for v in range(m + 2, 22):
                assert hurwitz_identity(v, m).equal, (v, m)

    def test_power_sum_route_equals_row_route(self):
        # riemann_limit reads the power sum; the row ratios must give the
        # same rational, hence the same printed estimate
        for m in range(1, 6):
            for v in range(m + 2, 18):
                expected = to_decimal(_hurwitz_rhs(v, m), 50)
                assert riemann_limit(m, v, 40).estimate == expected, (v, m)

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_identity(1, 1)
        with pytest.raises(ValueError):
            hurwitz_identity(10, 0)
        for m in range(6, 9):
            for v in range(m + 2, 17):
                assert hurwitz_identity(v, m).equal, (v, m)


def _printed_combination(r, m):
    # the paper's hand-written m = 1..5 combinations, kept verbatim
    if m == 1:
        return Fraction(2, 3) * r[1]
    if m == 2:
        return Fraction(4, 9) * r[1] ** 2 - Fraction(4, 15) * r[2]
    if m == 3:
        return (
            Fraction(4, 105) * r[3]
            - Fraction(4, 15) * r[2] * r[1]
            + Fraction(8, 27) * r[1] ** 3
        )
    if m == 4:
        return Fraction(8, 14175) * (
            350 * r[1] ** 4
            - 420 * r[2] * r[1] ** 2
            + 63 * r[2] ** 2
            + 60 * r[3] * r[1]
            - 5 * r[4]
        )
    if m == 5:
        return Fraction(4, 93555) * (
            3080 * r[1] ** 5
            - 4620 * r[2] * r[1] ** 3
            + 1386 * r[2] ** 2 * r[1]
            + 660 * r[3] * r[1] ** 2
            - 198 * r[3] * r[2]
            - 55 * r[4] * r[1]
            + 3 * r[5]
        )
    raise ValueError(m)


class TestNewtonGirard:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_printed_combinations(self, m):
        sympy = pytest.importorskip("sympy")
        r = [None] + list(sympy.symbols("r1:6"))
        general = power_sum_from_ratios(r[1 : m + 1])
        assert sympy.expand(general - _printed_combination(r, m)) == 0


class TestRiemannLimit:
    def test_bracket(self):
        for m in (1, 2, 3, 4, 5):
            for v in (m + 2, 12, 30, 80):
                res = riemann_limit(m, v, 40)
                assert res.bounds[0] < res.deviation < res.bounds[1], (m, v)
        res = riemann_limit(6, 40, 50)
        assert res.bounds[0] < res.deviation < res.bounds[1]

    def test_quoted_m2_v10(self):
        res = riemann_limit(2, 10, 40)
        assert Decimal(1) / (3 * 10**3) < res.deviation < Decimal(1) / (3 * 9**3)

    def test_estimate_approaches_zeta2(self):
        res = riemann_limit(1, 100, 40)
        pi2_6 = Decimal("1.6449340668482264364724151666460251892")
        assert abs(res.estimate - pi2_6) <= res.bounds[1]

    def test_deviation_scaling(self):
        d = [riemann_limit(2, v, 40).deviation for v in (10, 20, 40)]
        assert Decimal(7) < d[0] / d[1] < Decimal(9)
        assert Decimal(7) < d[1] / d[2] < Decimal(9)

    @pytest.mark.parametrize(("m", "v"), [(1, 1000), (2, 10), (3, 2000), (5, 3000)])
    def test_against_mpmath(self, m, v):
        mpmath = pytest.importorskip("mpmath")
        precision = 1000
        res = riemann_limit(m, v, precision)
        with mpmath.workdps(precision + 20):
            tail = mpmath.zeta(2 * m, v)
            partial = mpmath.zeta(2 * m) - tail
            tolerance = mpmath.mpf(10) ** (5 - precision)
            assert abs(mpmath.mpf(str(res.estimate)) - partial) <= tolerance * partial
            # a difference of two values near zeta(2m): absolute digits
            assert abs(mpmath.mpf(str(res.deviation)) - tail) <= tolerance

    def test_unresolvable_deviation_is_refused(self):
        # 70**20 < 10**37 <= 71**20: the last v that precision 30 resolves
        res = riemann_limit(10, 70, 30)
        assert res.bounds[0] < res.deviation < res.bounds[1]
        with pytest.raises(ValueError, match="cannot resolve"):
            riemann_limit(10, 71, 30)
        # 40**60 >= 10**57: the deviation printed would be rounding noise
        with pytest.raises(ValueError, match="cannot resolve"):
            riemann_limit(30, 40, 50)
        res = riemann_limit(30, 40, 90)
        assert res.bounds[0] < res.deviation < res.bounds[1]

    def test_domain(self):
        with pytest.raises(ValueError):
            riemann_limit(1, 2, 40)
        with pytest.raises(ValueError):
            riemann_limit(2, 10, 20)
        with pytest.raises(ValueError):
            riemann_limit(0, 10, 40)
