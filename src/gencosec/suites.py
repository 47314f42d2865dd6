"""Named verification suites: every identity as a stream of reports.

Each suite function returns a deterministically ordered list of
IdentityReport covering one family of exact checks; ``SUITES`` maps the
CLI names to them and ``suite_all`` runs every one in name order.  Each
report is built by ``IdentityReport.compare(name, params, left, right)``,
except in ``suite_c2v``, whose ``equal`` means that all three routes
agree.  The CLI ``verify`` subcommand calls these functions directly, and
the acceptance tests run them too, so a passing suite here is the single
source of truth for "the identities hold".
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .coeffs import c2v_vm1_beta, c2v_vm1_sum
from .exactnum import poly_eval
from .genseries import (
    COSECANT,
    SECANT,
    OracleStream,
    cosecant_number,
    gen_cosecant,
    gen_secant,
)
from .stirling import NESTED_MAX_K, NESTED_MAX_OFFSET, stirling1, stirling1_nested
from .symzeta import IdentityReport, hurwitz_identity, identity_nine, sym_high_partition, sym_poly

__all__ = [
    "SUITES",
    "suite_all",
    "suite_c2v",
    "suite_hurwitz",
    "suite_nine",
    "suite_oracle",
    "suite_rho_identities",
    "suite_stirling",
]


def suite_rho_identities(k_max: int = 30) -> list[IdentityReport]:
    """Row evaluations at rho = -1 and rho = 2 against their closed forms.

    At rho = -1 the row collapses to (-1)**k/(2k+1)!; at rho = 2 it
    equals (2k-1) c_k / (1 - 2**(1-2k)) with c_k the plain cosecant
    number (the rho = 1 value).
    """
    reports = []
    for k in range(1, k_max + 1):
        row = gen_cosecant(k)
        left = poly_eval(row, -1)
        right = Fraction((-1) ** k, factorial(2 * k + 1))
        reports.append(IdentityReport.compare("rho_minus_one", {"k": k}, left, right))
        left = poly_eval(row, 2)
        right = (2 * k - 1) * cosecant_number(k) / (1 - Fraction(2) ** (1 - 2 * k))
        reports.append(IdentityReport.compare("rho_two", {"k": k}, left, right))
    return reports


def suite_oracle(k_max: int = 30) -> list[IdentityReport]:
    """Partition transform vs exp-log composition, both series families."""
    reports = []
    for spec, build in ((COSECANT, gen_cosecant), (SECANT, gen_secant)):
        oracle = OracleStream(spec)
        for k in range(k_max + 1):
            params = {"series": spec.name, "k": k}
            reports.append(
                IdentityReport.compare("oracle_equivalence", params, build(k), oracle.row(k))
            )
    return reports


def suite_stirling(k_max: int = NESTED_MAX_K) -> list[IdentityReport]:
    """Literal nested sums for s_k^(k-j) against the Pochhammer coefficients."""
    if k_max > NESTED_MAX_K:
        raise ValueError(f"k_max must be at most {NESTED_MAX_K}, got {k_max}")
    reports = []
    for offset in range(1, NESTED_MAX_OFFSET + 1):
        for k in range(offset + 1, k_max + 1):
            reports.append(
                IdentityReport.compare(
                    "stirling_nested",
                    {"k": k, "offset": offset},
                    stirling1_nested(k, offset),
                    stirling1(k, k - offset),
                )
            )
    return reports


def suite_nine(v_max: int = 15) -> list[IdentityReport]:
    """Row values at rho = 2v vs symmetric polynomials, both directions."""
    reports = []
    for v in range(1, v_max + 1):
        for i in range(v):
            reports.append(identity_nine(v, i))
    for v in range(1, v_max + 1):
        for ell in range(1, min(v, 6) + 1):
            reports.append(
                IdentityReport.compare(
                    "sym_high",
                    {"v": v, "ell": ell},
                    sym_high_partition(v, ell),
                    Fraction(sym_poly(v, v - ell)),
                )
            )
    return reports


def suite_hurwitz(v_max: int = 30) -> list[IdentityReport]:
    """Power-sum combinations for m = 1..5, boundary rows included."""
    reports = []
    for m in range(1, 6):
        for v in range(m + 1, v_max + 1):
            reports.append(hurwitz_identity(v, m))
    return reports


def suite_c2v(v_max: int = 25) -> list[IdentityReport]:
    """The three routes to c_{2v,v-1}: beta form, alternating sum, row."""
    reports = []
    for v in range(1, v_max + 1):
        from_sum = c2v_vm1_sum(v)
        from_row = poly_eval(gen_cosecant(v - 1), 2 * v)
        values = {"sum": from_sum, "row": from_row}
        if v >= 2:
            values["beta"] = c2v_vm1_beta(v)
        agreed = len(set(values.values())) == 1
        reports.append(
            IdentityReport(
                name="c2v_vm1",
                params={"v": v, "routes": sorted(values)},
                left=str(from_sum),
                right=str(from_row),
                equal=agreed,
            )
        )
    return reports


SUITES = {
    "rho-identities": suite_rho_identities,
    "oracle": suite_oracle,
    "stirling": suite_stirling,
    "nine": suite_nine,
    "hurwitz": suite_hurwitz,
    "c2v": suite_c2v,
}


def suite_all() -> list[IdentityReport]:
    reports = []
    for name in sorted(SUITES):
        reports.extend(SUITES[name]())
    return reports
