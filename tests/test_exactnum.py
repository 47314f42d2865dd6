"""Polynomial arithmetic, rational serialization, and pi."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gencosec.exactnum import (
    RhoPolynomial,
    frac_to_str,
    hp_context,
    pi_hp,
    pochhammer_poly,
    poly_eval,
    to_decimal,
)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
small_polys = st.lists(rationals, min_size=1, max_size=6).map(RhoPolynomial)


@given(rationals)
def test_frac_str_roundtrip(q):
    assert Fraction(frac_to_str(q)) == q


def test_frac_to_str_always_carries_denominator():
    assert frac_to_str(Fraction(3)) == "3/1"
    assert frac_to_str(Fraction(-7, 360)) == "-7/360"


class TestRhoPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert RhoPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert RhoPolynomial([0, 0]).coefficients == (0,)
        assert RhoPolynomial([]) == RhoPolynomial.zero()

    def test_degree_and_indexing(self):
        p = RhoPolynomial([5, 0, 3])
        assert p.degree == 2
        assert p.coefficient(1) == 0
        assert p.coefficient(7) == 0

    def test_constants(self):
        assert RhoPolynomial.zero() == RhoPolynomial([0])
        assert poly_eval(RhoPolynomial.one(), 123) == 1

    @given(small_polys, small_polys, rationals)
    def test_add_is_pointwise(self, p, q, x):
        assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)

    @given(small_polys, small_polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p

    @given(small_polys, small_polys, rationals)
    def test_distributivity(self, q, r, c):
        assert (q + r).scale(c) == q.scale(c) + r.scale(c)
        assert (q + r).times_rho() == q.times_rho() + r.times_rho()

    @given(small_polys, rationals, rationals)
    def test_scale_and_times_rho(self, p, c, x):
        assert poly_eval(p.scale(c), x) == c * poly_eval(p, x)
        assert poly_eval(p.times_rho(), x) == x * poly_eval(p, x)

    @given(small_polys)
    def test_subtraction_gives_zero(self, p):
        assert p + p.scale(-1) == RhoPolynomial.zero()

    def test_callable_matches_poly_eval(self):
        p = RhoPolynomial([1, Fraction(1, 2), 3])
        assert p(Fraction(2, 3)) == poly_eval(p, Fraction(2, 3))


class TestPochhammer:
    @given(st.integers(min_value=0, max_value=12), rationals)
    def test_matches_rising_product(self, n, x):
        expected = Fraction(1)
        for i in range(n):
            expected *= x + i
        assert poly_eval(pochhammer_poly(n), x) == expected

    def test_degree(self):
        assert pochhammer_poly(0) == RhoPolynomial.one()
        assert pochhammer_poly(5).degree == 5


PI_50 = "3.1415926535897932384626433832795028841971693993751"


class TestPi:
    def test_known_digits(self):
        assert str(pi_hp(50)) == PI_50
        assert str(pi_hp(9)) == PI_50[:10]

    def test_prefix_stability(self):
        long = str(pi_hp(120))
        assert long.startswith(str(pi_hp(80))[:75])

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(1020):
            got = mpmath.mpf(str(pi_hp(1000)))
            assert abs(got - mpmath.pi) <= mpmath.mpf(10) ** (5 - 1000) * mpmath.pi

    def test_minimum_precision(self):
        assert str(pi_hp(1)) == "3"
        with pytest.raises(ValueError):
            pi_hp(0)


def test_to_decimal_rounds_at_requested_precision():
    d = to_decimal(Fraction(1, 3), 30)
    assert str(d) == "0." + "3" * 30


def test_hp_context_adds_guard_digits():
    assert hp_context(50).prec == 60
    assert hp_context(50, guard=3).prec == 53


def test_to_decimal_handles_integers():
    assert to_decimal(7, 10) == Decimal(7)
