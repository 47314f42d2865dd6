"""Series rows: partition transform, exp-log oracle, and consequences."""

from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from gencosec.exactnum import RhoPolynomial, hp_context, pi_hp, pochhammer_poly, poly_eval
from gencosec.genseries import (
    COSECANT,
    SECANT,
    OracleStream,
    bernoulli_from_cosecant,
    cosecant_number,
    gen_cosecant,
    gen_secant,
    partition_transform,
    zeta_even_factor,
    zeta_even_from_cosecant,
)
from gencosec.partitions import enumerate_partitions


class TestRows:
    def test_first_rows(self):
        assert gen_cosecant(0) == RhoPolynomial.one()
        assert gen_cosecant(1) == RhoPolynomial([0, Fraction(1, 6)])
        # 2/6! (2 rho + 5 rho^2)
        assert gen_cosecant(2) == RhoPolynomial(
            [0, Fraction(4, 720), Fraction(10, 720)]
        )

    def test_secant_first_rows(self):
        assert gen_secant(0) == RhoPolynomial.one()
        assert gen_secant(1) == RhoPolynomial([0, Fraction(1, 2)])
        # sec z = 1 + z^2/2 + 5 z^4/24: row 2 at rho = 1 is 5/24
        assert poly_eval(gen_secant(2), 1) == Fraction(5, 24)

    def test_cosecant_number(self):
        assert cosecant_number(2) == Fraction(7, 360)
        assert cosecant_number(1) == Fraction(1, 6)

    @given(st.integers(min_value=1, max_value=15))
    @settings(deadline=None, max_examples=15)
    def test_row_shape(self, k):
        row = gen_cosecant(k)
        assert row.degree == k
        assert row.coefficient(0) == 0
        # leading coefficient 1/(6^k k!)
        assert row.coefficient(k) == Fraction(1, 6**k * factorial(k))
        assert all(c >= 0 for c in row.coefficients)

    @given(st.integers(min_value=1, max_value=12))
    @settings(deadline=None, max_examples=12)
    def test_rho_collapses(self, k):
        row = gen_cosecant(k)
        # rho = -1: the series inverts to sin(z)/z
        assert poly_eval(row, -1) == Fraction((-1) ** k, factorial(2 * k + 1))
        # rho = 2: reduces to the plain cosecant numbers
        expected = (2 * k - 1) * cosecant_number(k) / (1 - Fraction(2) ** (1 - 2 * k))
        assert poly_eval(row, 2) == expected


class TestOracle:
    def test_matches_partition_transform(self):
        oracle = OracleStream(COSECANT)
        for k in range(13):
            assert oracle.row(k) == gen_cosecant(k)
        oracle = OracleStream(SECANT)
        for k in range(11):
            assert oracle.row(k) == gen_secant(k)

    def test_stream_grows_incrementally(self):
        stream = OracleStream(COSECANT)
        assert stream.extend() == gen_cosecant(1)
        assert stream.row(1) == gen_cosecant(1)
        assert stream.row(5) == gen_cosecant(5)
        # row(5) extended the stream exactly to order 5
        assert stream.extend() == gen_cosecant(6)

    def test_row_out_of_range(self):
        stream = OracleStream(COSECANT)
        stream.row(3)
        with pytest.raises(ValueError):
            stream.row(-1)


def literal_partition_sum(k, spec):
    """The paper's sum with one term per partition of k, as written."""
    acc = [Fraction(0)] * (k + 1)
    for parts in enumerate_partitions(k):
        term = Fraction((-1) ** (k + len(parts)))
        for part, mult in Counter(parts).items():
            term *= spec.inner_value(part) ** mult / factorial(mult)
        for j, c in enumerate(pochhammer_poly(len(parts)).coefficients):
            acc[j] += c * term
    return RhoPolynomial(acc)


@pytest.mark.parametrize("spec", [COSECANT, SECANT], ids=lambda spec: spec.name)
def test_three_routes_agree(spec):
    # length-grouped transform vs the literal partition sum (k <= 20,
    # where p(k) stays small) and vs the exp-log oracle (k <= 60)
    oracle = OracleStream(spec)
    for k in range(61):
        row = partition_transform(k, spec)
        assert row == oracle.row(k), k
        if k <= 20:
            assert row == literal_partition_sum(k, spec), k


@pytest.mark.parametrize("family", ["cosecant", "secant"])
def test_rows_match_sympy_series(family):
    # an oracle outside the package: sympy's Taylor series of the
    # generating function, with rho kept as a symbol
    sympy = pytest.importorskip("sympy")
    z, rho = sympy.symbols("z rho")
    if family == "cosecant":
        base, build = z / sympy.sin(z), gen_cosecant
    else:
        base, build = sympy.sec(z), gen_secant
    series = sympy.series(base**rho, z, 0, 26).removeO()
    for k in range(13):
        coeffs = sympy.Poly(sympy.expand(series.coeff(z, 2 * k)), rho).all_coeffs()
        want = RhoPolynomial(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))
        assert build(k) == want, (family, k)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@given(
    a=small_rationals,
    b=small_rationals,
    k=st.integers(min_value=0, max_value=30),
    build=st.sampled_from([gen_cosecant, gen_secant]),
)
@settings(deadline=None, max_examples=40)
def test_rows_convolve(a, b, k, build):
    # (z/sin z)**(a+b) and sec(z)**(a+b) are products of the a and b series
    left = poly_eval(build(k), a + b)
    right = sum(poly_eval(build(i), a) * poly_eval(build(k - i), b) for i in range(k + 1))
    assert left == right


def bernoulli_oracle(n_max):
    """B_0..B_{n_max} via sum_j C(m+1,j) B_j = 0, independent of any series."""
    values = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    return values


def test_bernoulli_cross_check():
    oracle = bernoulli_oracle(30)
    for k in range(1, 16):
        assert bernoulli_from_cosecant(k) == oracle[2 * k]


class TestZetaEven:
    def test_factor_values(self):
        expected = [Fraction(1, d) for d in (6, 90, 945, 9450, 93555)]
        assert [zeta_even_factor(m) for m in range(1, 6)] == expected

    def test_matches_pi_formula(self):
        # zeta(2) = pi^2/6 to 30 digits
        got = zeta_even_from_cosecant(1, 30)
        with localcontext(hp_context(30)):
            want = pi_hp(40) ** 2 / 6
        assert str(got)[:31] == str(want)[:31]

    def test_high_order_precision(self):
        # k = 10 at P = 90: the value is so much more accurate than a
        # 59-term partial sum that their difference IS the tail, which
        # the integral test brackets between 60^-19/19 and 59^-19/19.
        got = zeta_even_from_cosecant(10, 90)
        direct = sum(Fraction(1, n**20) for n in range(1, 60))
        with localcontext(hp_context(90)):
            approx = Decimal(direct.numerator) / Decimal(direct.denominator)
            lower = Decimal(60) ** -19 / 19
            upper = Decimal(59) ** -19 / 19
        assert lower < abs(got - approx) < upper

    @pytest.mark.parametrize("precision", [50, 1000])
    @pytest.mark.parametrize("k", [1, 5, 30])
    def test_against_mpmath(self, k, precision):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(precision + 20):
            want = mpmath.zeta(2 * k)
            got = mpmath.mpf(str(zeta_even_from_cosecant(k, precision)))
            assert abs(got - want) < mpmath.mpf(10) ** (1 - precision) * want

    def test_preconditions(self):
        with pytest.raises(ValueError):
            zeta_even_from_cosecant(0, 50)
        with pytest.raises(ValueError):
            zeta_even_from_cosecant(1, 10)
