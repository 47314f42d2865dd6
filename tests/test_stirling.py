"""Stirling numbers of the first kind and the r_ell ratio polynomials."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from gencosec.exactnum import pochhammer_poly, poly_eval
from gencosec.refdata import load_table4
from gencosec.stirling import (
    NESTED_MAX_K,
    NESTED_MAX_OFFSET,
    fit_polynomial,
    newton_coefficients,
    r_poly,
    stirling1,
    stirling1_nested,
)


class TestTriangle:
    def test_known_row(self):
        # signed row k = 5: x(x-1)(x-2)(x-3)(x-4)
        assert [stirling1(5, j) for j in range(6)] == [0, 24, -50, 35, -10, 1]

    def test_edges(self):
        assert stirling1(0, 0) == 1
        assert stirling1(7, 7) == 1
        assert stirling1(6, 0) == 0
        assert stirling1(4, 9) == 0
        assert stirling1(9, 1) == factorial(8)

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=25))
    @settings(deadline=None)
    def test_recurrence(self, k, j):
        assert stirling1(k + 1, j) == stirling1(k, j - 1) - k * stirling1(k, j)

    @given(st.integers(min_value=2, max_value=30))
    @settings(deadline=None, max_examples=29)
    def test_row_sum_vanishes(self, k):
        assert sum(stirling1(k, j) for j in range(k + 1)) == 0

    def test_deep_cold_order(self):
        # (rho)_1200 from an empty cache: the product once recursed once per
        # order and raised RecursionError here.  Each check is an identity
        # that shares no code with the product loop.
        pochhammer_poly.cache_clear()
        poly = pochhammer_poly(1200)
        assert poly_eval(poly, 1) == factorial(1200)
        assert poly_eval(poly, 2) == factorial(1201)
        assert stirling1(1200, 1) == -factorial(1199)
        assert stirling1(1200, 1200) == 1

    def test_pochhammer_coefficients_are_unsigned_stirling(self, stirling_rows):
        # stirling1 reads the Pochhammer coefficients; the reference is the
        # recurrence triangle, which shares no code with them
        for n, row in enumerate(stirling_rows):
            poly = pochhammer_poly(n)
            for j, s in enumerate(row):
                assert poly.coefficient(j) == abs(s)
                assert stirling1(n, j) == s, (n, j)


class TestNested:
    def test_matches_recurrence_everywhere(self, stirling_rows):
        for offset in range(1, NESTED_MAX_OFFSET + 1):
            for k in range(offset + 1, NESTED_MAX_K + 1):
                assert stirling1_nested(k, offset) == stirling_rows[k][k - offset]

    def test_bounds(self):
        with pytest.raises(ValueError):
            stirling1_nested(10, 7)
        with pytest.raises(ValueError):
            stirling1_nested(15, 3)
        with pytest.raises(ValueError):
            stirling1_nested(0, 1)


class TestNewton:
    def test_interpolates_exactly(self):
        # fit a known cubic through four points, check two fresh points
        def f(x):
            return Fraction(2, 3) * x**3 - x + Fraction(5)

        points = [(Fraction(i), f(Fraction(i))) for i in (0, 1, 2, 3)]
        coeffs = newton_coefficients(points)
        assert list(coeffs) == [Fraction(5), Fraction(-1), Fraction(0), Fraction(2, 3)]

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6, unique=True))
    def test_reproduces_sample_values(self, xs):
        # interpolate y = x^2 + 1 at the given nodes, evaluate back
        points = [(Fraction(x), Fraction(x) ** 2 + 1) for x in xs]
        coeffs = newton_coefficients(points)

        def evaluate(t):
            return sum((c * t**i for i, c in enumerate(coeffs)), Fraction(0))

        for x, y in points:
            assert evaluate(x) == y

    def test_fit_polynomial_checks_beyond_nodes(self):
        def cube(k):
            return Fraction(k**3)

        assert fit_polynomial(cube, range(4), 20, "cube").coefficients == (0, 0, 0, 1)
        # three nodes fit a quadratic, which the check at k = 3 refutes
        with pytest.raises(RuntimeError, match="cube fails its check at k=3"):
            fit_polynomial(cube, range(3), 20, "cube")


class TestRPoly:
    def test_first_rows(self):
        assert r_poly(1).coefficients == (Fraction(1),)
        assert r_poly(2).coefficients == (Fraction(-1, 4), Fraction(3, 4))
        assert r_poly(3).coefficients == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))

    def test_degree(self):
        for ell in range(1, 11):
            assert r_poly(ell).degree == ell - 1

    def test_defining_identity(self, stirling_rows):
        for ell in range(1, 11):
            poly = r_poly(ell)
            for k in range(ell + 1, len(stirling_rows)):
                lhs = stirling_rows[k][k - ell]
                rhs = (-1) ** ell * comb(k, ell + 1) * poly(k)
                assert lhs == rhs, (ell, k)

    def test_bounds(self):
        with pytest.raises(ValueError):
            r_poly(0)
        with pytest.raises(ValueError):
            r_poly(11)

    def test_printed_rows_match_except_known_misprints(self):
        rows, diffs = load_table4()
        bad = {entry["ell"] for entry in diffs}
        assert bad == {8, 9}
        for row in rows:
            derived = r_poly(row.ell)
            if row.ell in bad:
                assert row.coefficients() != derived.coefficients
            else:
                assert row.coefficients() == derived.coefficients
        for entry in diffs:
            assert entry["derived_poly"].coefficients() == r_poly(entry["ell"]).coefficients
