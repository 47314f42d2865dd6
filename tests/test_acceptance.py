"""Acceptance gate: one check per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line even for passing criteria.  Failures are genuine disagreements
between the printed source tables and exact computation; the verdict
line carries the analysis.
"""

import json
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

from gencosec.cli import main
from gencosec.coeffs import beta_ratio, leading_closed
from gencosec.exactnum import hp_context, pi_hp, poly_eval, to_decimal
from gencosec.genseries import (
    COSECANT,
    OracleStream,
    bernoulli_from_cosecant,
    cosecant_number,
    gen_cosecant,
    zeta_even_from_cosecant,
)
from gencosec.refdata import load_table2, load_table3, load_table4
from gencosec.stirling import r_poly, stirling1
from gencosec.suites import run_suite
from gencosec.symzeta import riemann_limit


def verdict(number: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_table2_reproduction():
    start = time.perf_counter()
    rows, expected_diffs = load_table2()
    oracle = OracleStream(COSECANT).table(15)
    methods_agree = all(gen_cosecant(k) == oracle.row(k) for k in range(16))
    allowed = {(d["k"], d["power"]) for d in expected_diffs}
    unexpected, seen = [], []
    for ref in rows:
        computed = gen_cosecant(ref.k).coefficients
        for power, (p, c) in enumerate(zip(ref.rational_coefficients(), computed)):
            if p == c:
                continue
            (seen if (ref.k, power) in allowed else unexpected).append((ref.k, power))
    elapsed = time.perf_counter() - start
    ok = methods_agree and not unexpected and set(seen) == allowed and elapsed < 60
    line = verdict(
        1,
        ok,
        f"rows 0..15 match print except expect-diff cells {sorted(seen)} "
        f"(printed 3327594 -> computed 3327584); methods agree: {methods_agree}; "
        f"unexpected diffs: {unexpected}; {elapsed:.1f}s",
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


def test_criterion_03_table3_reproduction():
    start = time.perf_counter()
    fixture = load_table3()
    mismatches = []
    for cell in fixture["cells"]:
        got = beta_ratio(cell["rho"], cell["k"])
        if got != cell["printed"]:
            mismatches.append(
                f"(rho={cell['rho']},k={cell['k']}) printed {cell['printed']} "
                f"computed {got} [{cell['status']}]"
            )
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60
    rounded = sum("matches_rounding" in m for m in mismatches)
    misprints = sum("differs" in m for m in mismatches)
    line = verdict(
        3,
        ok,
        f"{35 - len(mismatches)}/35 cells match the printed 6-truncated strings; "
        f"{rounded} printed cells are roundings (off by one in the last digit "
        f"despite the stated no-rounding convention), {misprints} are misprints: "
        + "; ".join(m for m in mismatches if "differs" in m)
        + f"; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_04_table4_reproduction():
    rows, diffs = load_table4()
    printed = {row.ell: row for row in rows}
    match_ells = []
    mismatch_ells = []
    for ell in (1, 2, 3, 4, 5, 6, 7, 9, 10):
        if printed[ell].coefficients() == r_poly(ell).coefficients:
            match_ells.append(ell)
        else:
            mismatch_ells.append(ell)
    # ell = 8: derived polynomial must satisfy the defining identity
    r8 = r_poly(8)
    identity_ok = all(
        stirling1(k, k - 8) == comb(k, 9) * r8(k) for k in range(9, 41)
    )
    ell8_reported = any(d["ell"] == 8 for d in diffs)
    ok = mismatch_ells == [] and identity_ok and ell8_reported
    line = verdict(
        4,
        ok,
        f"printed rows match for ell in {match_ells}; mismatches at {mismatch_ells} "
        "(the printed ell=9 row has total degree 9 and fails the defining identity; "
        "the derived degree-8 polynomial k(15k^7-180k^6+630k^5-448k^4-665k^3"
        f"+100k^2+404k+144)/768 satisfies it for k<=40); ell=8 identity for k=9..40: "
        f"{identity_ok}, printed-row mismatch reported: {ell8_reported}",
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
        for report in run_suite(name):
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
