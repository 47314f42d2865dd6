"""Acceptance gate: one check per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line even for passing criteria.  Where a printed source table disagrees
with exact computation (criteria 1, 3 and 4), the fixture under
``gencosec/data`` records each disagreement verbatim, and the criterion
passes only when the disagreements are exactly the recorded ones; the
verdict line lists them.
"""

import json
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, floor

from gencosec.cli import main
from gencosec.coeffs import beta_ratio, beta_ratio_exact, leading_closed
from gencosec.exactnum import (
    RhoPolynomial,
    hp_context,
    pi_hp,
    poly_eval,
    to_decimal,
)
from gencosec.genseries import (
    COSECANT,
    OracleStream,
    bernoulli_from_cosecant,
    cosecant_number,
    gen_cosecant,
    zeta_even_from_cosecant,
)
from gencosec.refdata import load_table2, load_table3, load_table4
from gencosec.stirling import r_poly
from gencosec.suites import SUITES
from gencosec.symzeta import riemann_limit


def verdict(number: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# The coefficients of table 2 that disagree with computation, keyed by
# (k, power of rho), quoted from the print.
TABLE2_MISPRINTS = {(6, 2): "3327594"}


def test_criterion_01_table2_reproduction():
    start = time.perf_counter()
    rows, expected_diffs = load_table2()
    oracle = OracleStream(COSECANT)
    methods_agree = all(gen_cosecant(k) == oracle.row(k) for k in range(16))
    allowed = {(d["k"], d["power"]) for d in expected_diffs}
    unexpected, seen, misprints = [], [], {}
    for ref in rows:
        computed = gen_cosecant(ref.k).coefficients
        for power, (p, c) in enumerate(zip(ref.rational_coefficients(), computed)):
            if p == c:
                continue
            (seen if (ref.k, power) in allowed else unexpected).append((ref.k, power))
            misprints[(ref.k, power)] = (str(ref.coeffs[power]), c / ref.prefactor)
    elapsed = time.perf_counter() - start
    printed = {cell: text for cell, (text, _) in misprints.items()}
    ok = (
        methods_agree
        and not unexpected
        and set(seen) == allowed
        and printed == TABLE2_MISPRINTS
        and elapsed < 60
    )
    line = verdict(
        1,
        ok,
        f"rows 0..15 match print except expect-diff cells {sorted(seen)} ("
        + "; ".join(f"printed {text} -> computed {c}" for text, c in misprints.values())
        + f"); methods agree: {methods_agree}; unexpected diffs: {unexpected}; "
        f"{elapsed:.1f}s",
    )
    assert ok, line


TABLE1_K6 = [
    ("{6}", {"6": 1}, 1),
    ("{5,1}", {"1": 1, "5": 1}, 2),
    ("{4,2}", {"2": 1, "4": 1}, 2),
    ("{4,1,1}", {"1": 2, "4": 1}, 3),
    ("{3,3}", {"3": 2}, 2),
    ("{3,2,1}", {"1": 1, "2": 1, "3": 1}, 3),
    ("{3,1,1,1}", {"1": 3, "3": 1}, 4),
    ("{2,2,2}", {"2": 3}, 3),
    ("{2,2,1,1}", {"1": 2, "2": 2}, 4),
    ("{2,1,1,1,1}", {"1": 4, "2": 1}, 5),
    ("{1,1,1,1,1,1}", {"1": 6}, 6),
]


def test_criterion_02_table1_reproduction(capsys):
    code = main(["table1", "--k", "6", "--format", "json"])
    out = capsys.readouterr().out
    rows = json.loads(out)
    ok = code == 0 and len(rows) == 11
    for row, (text, mults, length) in zip(rows, TABLE1_K6):
        ok = ok and row == {
            "partition": text,
            "multiplicities": mults,
            "length": length,
        }
    with capsys.disabled():
        line = verdict(2, ok, f"{len(rows)} rows, multiplicities and lengths exact")
    assert ok, line


# The cells of table 3 whose printed string is neither the truncation nor
# the rounding of the exact ratio, quoted from the print.
TABLE3_MISPRINTS = {
    (10, 12): "0.801477",
    (100, 12): "0.999676",
    (100, 15): "0.992370",
}


def six_places(q: Fraction, half_up: bool) -> str:
    """q >= 0 to six decimals, truncated or rounded half up."""
    scaled = floor(q * 10**6 + (Fraction(1, 2) if half_up else 0))
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def test_criterion_03_table3_reproduction():
    start = time.perf_counter()
    fixture = load_table3()
    oracle = OracleStream(COSECANT)
    methods_agree = True
    counts = {"matches_truncation": 0, "matches_rounding": 0, "differs": 0}
    misprints, wrong = {}, []
    for cell in fixture["cells"]:
        rho, k = Fraction(cell["rho"]), cell["k"]
        # beta from the oracle row: its top four coefficients over the full row
        row = oracle.row(k)
        top = sum(row.coefficient(k - ell) * rho ** (k - ell) for ell in range(4))
        q = top / poly_eval(row, rho)
        methods_agree = methods_agree and q == beta_ratio_exact(rho, k)
        truncation, rounding = six_places(q, False), six_places(q, True)
        printed = cell["printed"]
        if printed == truncation:
            status = "matches_truncation"
        elif printed == rounding:
            status = "matches_rounding"
        else:
            status = "differs"
            misprints[(cell["rho"], k)] = printed
        counts[status] += 1
        ok_cell = status == cell["status"] and beta_ratio(rho, k) == truncation
        if status != "matches_truncation":
            ok_cell = ok_cell and truncation == cell["truncated"]
        if status == "differs":
            ok_cell = ok_cell and rounding == cell["rounded"]
        if not ok_cell:
            wrong.append(f"(rho={cell['rho']},k={k}) derived {status}")
    elapsed = time.perf_counter() - start
    ok = (
        len(fixture["cells"]) == 35
        and methods_agree
        and not wrong
        and misprints == TABLE3_MISPRINTS
        and elapsed < 60
    )
    line = verdict(
        3,
        ok,
        f"{counts['matches_truncation']}/35 cells match the printed 6-truncated "
        f"strings; {counts['matches_rounding']} printed cells are roundings (off by "
        f"one in the last digit despite the stated no-rounding convention), "
        f"{counts['differs']} are misprints: "
        + "; ".join(
            f"(rho={rho},k={k}) printed {printed} computed {beta_ratio(rho, k)}"
            for (rho, k), printed in misprints.items()
        )
        + f"; cells whose status is not the recorded one: {wrong}; "
        f"methods agree: {methods_agree}; {elapsed:.1f}s",
    )
    assert ok, line


# The rows of table 4 that disagree with r_ell, quoted from the print as
# (denominator, times k(k-1), inner ascending coefficients).
TABLE4_MISPRINTS = {
    8: (3840, False, (596367504, -66262636, -540, -2345, -840, 3150, -1260, 135)),
    9: (768, True, (-144, 404, 100, -665, -448, 630, -180, 15)),
}


def test_criterion_04_table4_reproduction(stirling_rows):
    rows, diffs = load_table4()
    recorded = {d["ell"]: d["derived_poly"] for d in diffs}
    match_ells, mismatch_ells, misprints = [], [], {}
    for row in rows:
        if row.coefficients() == r_poly(row.ell).coefficients:
            match_ells.append(row.ell)
        else:
            mismatch_ells.append(row.ell)
            misprints[row.ell] = (row.denominator, row.k_factor, row.inner)
    derived_ok = all(
        derived.coefficients() == r_poly(ell).coefficients
        for ell, derived in recorded.items()
    )

    def identity_holds(coefficients, ell: int, k: int) -> bool:
        # s_k^(k-ell) from the recurrence triangle (conftest), which shares
        # no code with r_poly
        stirling = stirling_rows[k][k - ell]
        r_value = poly_eval(RhoPolynomial(coefficients), k)
        return stirling == (-1) ** ell * comb(k, ell + 1) * r_value

    printed = {row.ell: row for row in rows}
    derived_identity = {
        ell: all(
            identity_holds(derived.coefficients(), ell, k) for k in range(ell + 1, 41)
        )
        for ell, derived in recorded.items()
    }
    printed_fails = {
        ell: not all(
            identity_holds(printed[ell].coefficients(), ell, k)
            for k in range(ell + 1, 41)
        )
        for ell in recorded
    }
    ok = (
        len(rows) == 10
        and set(mismatch_ells) == set(recorded)
        and misprints == TABLE4_MISPRINTS
        and derived_ok
        and all(derived_identity.values())
        and all(printed_fails.values())
    )
    line = verdict(
        4,
        ok,
        f"printed rows match for ell in {match_ells}; mismatches at {mismatch_ells}, "
        f"recorded misprints {sorted(recorded)}, printed rows as quoted: "
        f"{misprints == TABLE4_MISPRINTS} "
        "(the printed ell=8 row has a wrong constant and k-coefficient; the printed "
        "ell=9 row has total degree 9; the derived degree-8 polynomial "
        "k(15k^7-180k^6+630k^5-448k^4-665k^3+100k^2+404k+144)/768 replaces it); "
        f"recorded derived rows equal r_poly: {derived_ok}; defining identity for "
        f"k=ell+1..40 holds for the derived rows: {derived_identity}, fails for the "
        f"printed rows: {printed_fails}",
    )
    assert ok, line


def test_criterion_05_spot_rationals():
    checks = {
        "C_{4,1}": gen_cosecant(4).coefficient(1) == Fraction(144, 5443200),
        "leading_closed(8,3)": leading_closed(8, 3) == Fraction(73, 26453952000),
        "leading_closed(9,4)": leading_closed(9, 4)
        == Fraction(229051, 733303549440000),
        "c2v_vm1(5)": poly_eval(gen_cosecant(4), 10) == Fraction(128, 315),
        "cosecant_number(2)": cosecant_number(2) == Fraction(7, 360),
    }
    ok = all(checks.values())
    line = verdict(5, ok, ", ".join(f"{k}: {v}" for k, v in checks.items()))
    assert ok, line


def test_criterion_06_identity_suites():
    start = time.perf_counter()
    failures = []
    for name in ("rho-identities", "oracle", "stirling", "nine", "hurwitz"):
        for report in SUITES[name]():
            if report.asserted and not report.equal:
                failures.append((report.name, report.params))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    line = verdict(
        6,
        ok,
        f"rho=-1/rho=2 (k<=30), oracle equivalence (k<=30), stirling nested "
        f"(j<=6,k<=14), identity nine (v<=15), sym-high (v<=15,l<=6), hurwitz "
        f"(m<=5,v<=30) all exact; failures: {failures}; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_07_bernoulli():
    values = [Fraction(1)]
    for m in range(1, 31):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    bad = [
        k for k in range(1, 16) if bernoulli_from_cosecant(k) != values[2 * k]
    ]
    ok = not bad
    line = verdict(7, ok, f"B_2..B_30 from rows equal the recurrence oracle; bad: {bad}")
    assert ok, line


def test_criterion_08_zeta_even_numeric():
    n_terms = 10**4
    worst = None
    ok = True
    for k in range(1, 11):
        value = zeta_even_from_cosecant(k, 50)
        guard = 8 * k + 10
        with localcontext(hp_context(50, guard)):
            partial = Decimal(0)
            for n in range(1, n_terms + 1):
                partial += Decimal(1) / Decimal(n) ** (2 * k)
            diff = abs(value - partial)
            bound = Decimal(n_terms) ** (1 - 2 * k) / (2 * k - 1)
        ok = ok and diff < bound
        margin = float(diff / bound)
        if worst is None or margin > worst[1]:
            worst = (k, margin)
    line = verdict(
        8,
        ok,
        f"|zeta_even(k) - partial sum to 1e4| under the integral tail bound for "
        f"k=1..10 at P=50; worst margin k={worst[0]} at {worst[1]:.6f} of bound",
    )
    assert ok, line


def test_criterion_09_riemann_bracket():
    bad = []
    for m in (1, 2, 3):
        for v in (5, 10, 20, 50):
            res = riemann_limit(m, v, 40)
            if not res.bounds[0] < res.deviation < res.bounds[1]:
                bad.append((m, v))
    ok = not bad
    line = verdict(
        9, ok, f"deviation within [v^(1-2m)/(2m-1), (v-1)^(1-2m)/(2m-1)]; bad: {bad}"
    )
    assert ok, line


def test_criterion_10_large_k_asymptotic():
    precision = 30
    bad = []
    with localcontext(hp_context(precision)):
        pi_sq = pi_hp(precision + 10) ** 2
        for k in range(5, 26):
            ck = to_decimal(cosecant_number(k), precision + 10)
            ratio = ck * pi_sq**k / 2
            if abs(ratio - 1) >= Decimal(2) ** (1 - 2 * k) * 2:
                bad.append(k)
    ok = not bad
    line = verdict(
        10, ok, f"|c_k pi^(2k)/2 - 1| < 2^(2-2k) for k=5..25 at P=30; bad: {bad}"
    )
    assert ok, line
