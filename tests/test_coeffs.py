"""Closed forms, the accuracy-ratio table, and c_{2v,v-1} forms."""

import hashlib
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gencosec import coeffs
from gencosec.coeffs import (
    ASYMPTOTIC_VARIANTS,
    approx_cosecant_exact,
    beta_alternating,
    beta_ratio,
    beta_ratio_exact,
    c2v_vm1_asymptotic,
    c2v_vm1_beta,
    c2v_vm1_sum,
    closed_form,
    coefficient,
    leading_closed,
    truncate_decimal_string,
)
from gencosec.exactnum import RhoPolynomial, hp_context, pi_hp, poly_eval, to_decimal
from gencosec.genseries import gen_cosecant
from gencosec.refdata import load_table3
from gencosec.stirling import ELL_MAX, stirling1


class TestLeadingClosed:
    def test_matches_row_coefficients(self):
        # closed_form(ell) is fitted to rows k <= 3 ell; far beyond that
        # it must still give every row coefficient
        for ell in range(ELL_MAX + 1):
            for k in range(ell + 1, 45):
                assert leading_closed(k, ell) == coefficient(k, k - ell), (k, ell)

    def test_quoted_values(self):
        assert coefficient(4, 1) == Fraction(144, 5443200)
        assert leading_closed(8, 3) == Fraction(73, 26453952000)
        assert leading_closed(9, 4) == Fraction(229051, 733303549440000)

    def test_leading_is_six_power(self):
        assert leading_closed(7, 0) == Fraction(1, 6**7 * 5040)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            leading_closed(20, 11)
        with pytest.raises(ValueError):
            leading_closed(5, 5)
        for ell in (0, ELL_MAX + 1):
            with pytest.raises(ValueError):
                closed_form(ell)


def ckkm2_from_stirling(k: int) -> Fraction:
    """C_{k,k-2} assembled from its four contributing partitions.

    Only the partitions {1^k}, {2,1^(k-2)}, {3,1^(k-3)} and {2,2,1^(k-4)}
    reach the power rho**(k-2); their Pochhammer coefficients are signed
    Stirling numbers and the signs all cancel to plus:

        C_{k,k-2} = s_k^(k-2)/(6**k k!) + s_{k-1}^(k-2)/(5! 6**(k-2) (k-2)!)
                  + 1/(7! 6**(k-3) (k-3)!) + 1/(2! (5!)**2 6**(k-4) (k-4)!).
    """
    if k < 4:
        raise ValueError(f"needs k >= 4, got {k}")
    return (
        Fraction(stirling1(k, k - 2), 6**k * factorial(k))
        + Fraction(stirling1(k - 1, k - 2), factorial(5) * 6 ** (k - 2) * factorial(k - 2))
        + Fraction(1, factorial(7) * 6 ** (k - 3) * factorial(k - 3))
        + Fraction(1, 2 * factorial(5) ** 2 * 6 ** (k - 4) * factorial(k - 4))
    )


def test_ckkm2_four_partition_assembly():
    for k in range(4, 16):
        assert ckkm2_from_stirling(k) == coefficient(k, k - 2)
    with pytest.raises(ValueError):
        ckkm2_from_stirling(3)


# The printed closed forms C_{k,k-ell} = num(k) / (den * 6**(k+off) * (k-ell-1)!)
# for ell = 1..4, as (ascending numerator coefficients, den, off).
PRINTED_CLOSED_FORMS = {
    1: ([1], 5, 0),
    2: ([17, 21], 175, 1),
    3: ([0, Fraction(17, 7), 1], 125, 1),
    4: ([Fraction(-33510, 539), Fraction(867, 49), Fraction(306, 7), 9], 625, 3),
}


class TestFitLeading:
    def test_reproduces_quoted_solution(self):
        # the printed fit for ell = 3 over 6**(k+2) (k-4)!: a = 6/125,
        # b = 102/875, c = 0
        assert closed_form(3).scale(6**2).coefficients == (
            0,
            Fraction(102, 875),
            Fraction(6, 125),
        )

    def test_fit_agrees_with_closed_form(self):
        for ell, (numerator, den, off) in PRINTED_CLOSED_FORMS.items():
            printed = RhoPolynomial(numerator).scale(Fraction(1, den * 6**off))
            assert closed_form(ell) == printed, ell
            assert closed_form(ell).degree == ell - 1


class TestApproxAndRatio:
    def test_approx_is_four_leading_terms(self):
        k = 9
        rho = Fraction(50)
        expected = sum(
            (coefficient(k, k - ell) * rho ** (k - ell) for ell in range(4)),
            Fraction(0),
        )
        assert approx_cosecant_exact(rho, k) == expected

    def test_ratio_below_one(self):
        for rho in (10, 25, 100):
            for k in (6, 10, 15):
                q = beta_ratio_exact(rho, k)
                assert 0 < q < 1

    def test_quoted_cells(self):
        assert beta_ratio(10, 6) == "0.998904"
        assert beta_ratio(1000, 15) == "0.999999"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            beta_ratio_exact(Fraction(1, 2), 6)
        with pytest.raises(ValueError):
            beta_ratio_exact(10, 3)


class TestTruncation:
    @given(st.fractions(min_value=0, max_value=2, max_denominator=10**9))
    def test_truncation_brackets_value(self, q):
        s = truncate_decimal_string(q)
        t = Fraction(s.replace(".", "")) / 10**6
        assert t <= q < t + Fraction(1, 10**6)

    def test_no_rounding(self):
        assert truncate_decimal_string(Fraction(999999999, 10**9)) == "0.999999"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            truncate_decimal_string(Fraction(-1, 2))

    def test_fixture_grid_statuses_are_accurate(self):
        fixture = load_table3()
        for cell in fixture["cells"]:
            q = beta_ratio_exact(cell["rho"], cell["k"])
            trunc = truncate_decimal_string(q)
            if cell["status"] == "matches_truncation":
                assert trunc == cell["printed"]
            else:
                assert trunc != cell["printed"]
                assert trunc == cell["truncated"]
            # q lies at least 1e-12 from each multiple of 1e-6, so no
            # upstream perturbation that small changes the printed digits
            below = q - Fraction(trunc)
            assert min(below, Fraction(1, 10**6) - below) >= Fraction(1, 10**12), cell


class TestC2vRoutes:
    def test_quoted_value(self):
        assert c2v_vm1_beta(5) == Fraction(128, 315)
        assert c2v_vm1_sum(5) == Fraction(128, 315)
        assert poly_eval(gen_cosecant(4), 10) == Fraction(128, 315)

    def test_edge(self):
        assert c2v_vm1_sum(1) == 1
        with pytest.raises(ValueError):
            c2v_vm1_beta(1)

    @given(st.integers(min_value=2, max_value=20))
    @settings(deadline=None, max_examples=19)
    def test_three_routes_agree(self, v):
        beta = c2v_vm1_beta(v)
        total = c2v_vm1_sum(v)
        row = poly_eval(gen_cosecant(v - 1), 2 * v)
        assert beta == total == row


LN2_40 = "0.6931471805599453094172321214581765680755"

#: x = v + 1/2 as c2v_vm1_asymptotic reads it, and a spread of other x
BETA_ARGUMENTS = [Fraction(2 * v + 1, 2) for v in [*range(2, 61), 333, 2999]] + [
    Fraction(1),
    Fraction(1, 3),
    Fraction(7),
    Fraction(22, 7),
    Fraction(1, 1000),
]

# sha256 of str(beta_alternating(x, 300)), recorded while every term was
# still carried as an exact Fraction
BETA_DIGESTS = [
    ("1", "3374975790f316051c6b56a1d3efc2d82f77ce6e61b13555f081da4c42bb94e9"),
    ("22/7", "dc3399e8cbd724cefcc4163d48216343c8fefe9809570ef6d39e4df70eaf6939"),
]


class TestBetaAlternating:
    def test_x_one_is_ln_two(self):
        assert str(beta_alternating(Fraction(1), 40))[:42] == LN2_40

    def test_x_half_is_pi_over_two(self):
        got = beta_alternating(Fraction(1, 2), 40)
        with localcontext(hp_context(40)):
            want = pi_hp(50) / 2
        assert str(got)[:40] == str(want)[:40]

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(1020):
            tolerance = mpmath.mpf(10) ** (5 - 1000)
            for x, want in ((Fraction(1), mpmath.log(2)), (Fraction(1, 2), mpmath.pi / 2)):
                got = mpmath.mpf(str(beta_alternating(x, 1000)))
                assert abs(got - want) <= tolerance * want, x

    def test_preconditions(self):
        with pytest.raises(ValueError):
            beta_alternating(Fraction(0), 30)
        with pytest.raises(ValueError):
            beta_alternating(Fraction(1), 0)

    @pytest.mark.parametrize("precision", [30, 50, 200])
    def test_equals_exact_term_route(self, beta_reference, precision):
        # scaled-integer terms round exactly as the exact terms divided out
        for x in BETA_ARGUMENTS:
            assert str(beta_alternating(x, precision)) == str(beta_reference(x, precision)), x

    @pytest.mark.parametrize(
        ("scaled", "decided"),
        [
            (1234998, True),
            (1234999, False),  # the band [.4999, .5001) holds the half-way point
            (1235000, False),
            (1235001, True),
            (1230000, False),  # a short exact decimal may sit at the band's start
            (1239999, False),  # the band reaches 1240000
            (9996000, True),  # rounds up to 1.00E+7
        ],
    )
    def test_rounding_decision(self, scaled, decided):
        # t * 10**2 is in [scaled, scaled + 2); three digits are kept
        context = Context(prec=3)
        with localcontext(coeffs._EXACT):
            got = coeffs._round_scaled(Decimal(scaled), 2, context)
        if not decided:
            assert got is None
            return
        for offset in (0, 1, 3):  # t at the band's start, middle and near its end
            t = Fraction(2 * scaled + offset, 200)
            want = context.divide(Decimal(t.numerator), Decimal(t.denominator))
            assert str(got) == str(want), t

    @pytest.mark.parametrize("precision", [30, 50])
    def test_fallback_on_every_term(self, beta_reference, monkeypatch, precision):
        # the exact fallback alone, including its cutoff test, gives the same bytes
        monkeypatch.setattr(coeffs, "_round_scaled", lambda *args: None)
        for x in map(Fraction, ("1", "1/3", "22/7", "1/1000", "67/2")):
            assert str(beta_alternating(x, precision)) == str(beta_reference(x, precision)), x

    def test_short_exact_terms_keep_their_digits(self, beta_reference):
        # t_0 = 1/2 and t_1 = 1/8 are short exact decimals; at x = 10**40
        # only t_0 = 5E-41 is above the cutoff, and it prints short
        assert str(beta_alternating(Fraction(10**40), 40)) == "5E-41"
        for x in (Fraction(1), Fraction(1, 2), Fraction(5, 4), Fraction(10**25)):
            assert str(beta_alternating(x, 12)) == str(beta_reference(x, 12)), x

    @pytest.mark.parametrize(("x", "digest"), BETA_DIGESTS)
    def test_output_bytes(self, x, digest):
        value = beta_alternating(Fraction(x), 300)
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest


# sha256 of str(c2v_vm1_asymptotic(v, 50, ...)) per "v,variant" (or
# "v,leading_only"), recorded before the shared-ingredient wrapper went
ASYMPTOTIC_DIGESTS = [
    ("2,printed", "48862c4beb69cad9cb319e558bc01fc5085f05693afc1fc28f49b3cfbc1d4fe5"),
    ("2,beta_flipped", "273973bc3f5230f2b168f13ac2e26fe54e4d7030f4bebd2fb9ac0e8254e974d3"),
    ("2,two_term", "0f519a028fdcd49f588e512949c6348b8bdfa6a4a8ba00f78b4fe2fde11bd075"),
    ("2,leading_only", "a98454b2661be9476505c688810e301051fae8da92af088e2e966cd24c09fa77"),
    ("7,printed", "0fbbd2fd9cfc1029a74c3c443eae6b8b878d64151c35e59841304e25406f1059"),
    ("7,beta_flipped", "41f85ea92e9da30ef4bf801ce8dde058bdaf2e9afe7c2ac1bcd59163cb840aad"),
    ("7,two_term", "2326690c0b50d3244b325b3f928a51fb9b326c386d5d9f7c2428b9e0949afead"),
    ("7,leading_only", "b21e4ba1f155fb322cdb65d356d508ff9c63eee151a7afa53b5b5295aff39c1e"),
    ("40,printed", "7fd21d1ba7c8da9813bd9286372e9bf7f6e244b5d82c68bf11b64053a7b26f1f"),
    ("40,beta_flipped", "a6ce9b78af04cb5cc3479d6b1bdf169ec62fc193bab782fce359560937d292a4"),
    ("40,two_term", "42e422a3c5a2ab72b5ffac451dc9d529062aa2a8f18b14710b47cbb61c5b789c"),
    ("40,leading_only", "a69de0e30b0aeb6963db6d38ab955c898773da90165af7f191bf1878cd150038"),
]

# the same at the benchmark's scale, "v,precision,variant", recorded while
# beta_alternating still carried every term as an exact Fraction
ASYMPTOTIC_DIGESTS_HP = [
    ("1000,1000,printed", "538a22425dc71c7a341380fe8beeefdb5fc125b6e020184b6429bac3c5a05535"),
    ("1000,1000,beta_flipped", "ab07d1023c291c56d4f75a484324fa1c4c0e5239e828fc056d089f8eeabafa99"),
    ("2999,2000,printed", "f534768a45442356f20760834b10ec245755de00455a588b66da6146f3cc9c56"),
    ("2999,2000,beta_flipped", "a906e9b16e762efc9bf08c4852376c07661532443997ce4f381979b9026da882"),
]


def rel_err(v: int, **kwargs) -> Decimal:
    """Relative error of c2v_vm1_asymptotic(v, 40, **kwargs) against the exact value."""
    with localcontext(hp_context(40)):
        exact = to_decimal(c2v_vm1_beta(v), 50)
        return +abs(c2v_vm1_asymptotic(v, 40, **kwargs) / exact - 1)


class TestAsymptotic:
    def test_monotone_error_at_fixed_parity(self):
        errs = [rel_err(v) for v in (4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_two_term_variant_converges(self):
        errs = [rel_err(v, variant="two_term") for v in (8, 16, 32, 64)]
        # quarters (or better) per doubling
        for a, b in zip(errs, errs[1:]):
            assert b < a / 3
        # and beats the printed bracket by orders of magnitude
        assert errs[-1] < rel_err(64) / 1000

    def test_printed_bracket_plateaus(self):
        # the floor term keeps the printed form away from the true value:
        # its relative error stays above 0.3 long after the leading term
        # alone is below 0.01
        for v in (40, 80):
            assert rel_err(v) > Decimal("0.3")
            assert rel_err(v, leading_only=True) < Decimal("0.01")

    def test_v2_has_floor_contribution(self):
        full = c2v_vm1_asymptotic(2, 30)
        lead = c2v_vm1_asymptotic(2, 30, leading_only=True)
        assert full != lead

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            c2v_vm1_asymptotic(5, 30, variant="nonsense")
        assert set(ASYMPTOTIC_VARIANTS) == {"printed", "beta_flipped", "two_term"}

    @pytest.mark.parametrize(("case", "digest"), ASYMPTOTIC_DIGESTS)
    def test_output_bytes(self, case, digest):
        v, variant = case.split(",")
        if variant == "leading_only":
            value = c2v_vm1_asymptotic(int(v), 50, leading_only=True)
        else:
            value = c2v_vm1_asymptotic(int(v), 50, variant=variant)
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest

    @pytest.mark.parametrize(("case", "digest"), ASYMPTOTIC_DIGESTS_HP)
    def test_output_bytes_high_precision(self, case, digest):
        v, precision, variant = case.split(",")
        value = c2v_vm1_asymptotic(int(v), int(precision), variant=variant)
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest

    @pytest.mark.parametrize("v", [2, 7, 1000])
    def test_against_mpmath(self, v):
        # every bracket at 200 digits, with beta(v + 1/2) from the digamma
        # function: beta(x) = (psi((x+1)/2) - psi(x/2)) / 2
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(220):
            x = mpmath.mpf(2 * v + 1) / 2
            beta = (mpmath.digamma((x + 1) / 2) - mpmath.digamma(x / 2)) / 2
            sign = 1 if (v - 1) % 2 == 0 else -1
            half_beta = (1 + mpmath.mpf(3) / (4 * v)) * sign * beta / 2
            rest = mpmath.mpf(sign * (v // 2)) / (2 * v) - mpmath.mpf(5 * (1 - (-1) ** v)) / (8 * v)
            brackets = {
                "printed": mpmath.pi / 4 + half_beta + rest,
                "beta_flipped": mpmath.pi / 4 - half_beta + rest,
                "two_term": mpmath.pi / 4 * (1 + mpmath.mpf(1) / (4 * v)),
                "leading_only": mpmath.pi / 4,
            }
            prefactor = mpmath.binomial(2 * v - 1, v) / mpmath.mpf(2) ** (2 * v - 2)
            for variant, bracket in brackets.items():
                if variant == "leading_only":
                    value = c2v_vm1_asymptotic(v, 200, leading_only=True)
                else:
                    value = c2v_vm1_asymptotic(v, 200, variant=variant)
                want = bracket * prefactor
                got = mpmath.mpf(str(value))
                assert abs(got - want) < mpmath.mpf(10) ** -195 * abs(want), variant

    def test_preconditions(self):
        with pytest.raises(ValueError):
            c2v_vm1_asymptotic(1, 30)
        with pytest.raises(ValueError):
            c2v_vm1_asymptotic(5, 10)
