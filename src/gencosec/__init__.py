"""Generalized cosecant numbers with exact rational arithmetic.

c_{rho,k} is the coefficient of z**(2k) in (z/sin z)**rho, a polynomial
of degree k in rho.  Rows are built two independent ways (a partition
sum and an exp-log series composition) and feed a catalog of exact
identities: Stirling-number coefficient formulas, closed forms for the
leading coefficients, Bernoulli/zeta connections, and the symmetric
polynomial and Hurwitz zeta identities at rho = 2v.
"""

from .coeffs import (
    beta_ratio,
    c2v_vm1_asymptotic,
    c2v_vm1_beta,
    c2v_vm1_sum,
    closed_form,
    coefficient,
    leading_closed,
)
from .exactnum import RhoPolynomial, pi_hp, poly_eval
from .genseries import (
    COSECANT,
    SECANT,
    OracleStream,
    bernoulli_from_cosecant,
    cosecant_number,
    gen_cosecant,
    gen_secant,
    partition_transform,
    zeta_even_from_cosecant,
)
from .partitions import enumerate_partitions, partition_count
from .stirling import r_poly, stirling1, stirling1_nested
from .symzeta import (
    IdentityReport,
    harmonic_power_sum,
    hurwitz_identity,
    identity_nine,
    riemann_limit,
    sym_high_partition,
    sym_poly,
)

__version__ = "0.1.0"

__all__ = [
    "COSECANT",
    "IdentityReport",
    "OracleStream",
    "RhoPolynomial",
    "SECANT",
    "bernoulli_from_cosecant",
    "beta_ratio",
    "c2v_vm1_asymptotic",
    "c2v_vm1_beta",
    "c2v_vm1_sum",
    "closed_form",
    "coefficient",
    "cosecant_number",
    "enumerate_partitions",
    "gen_cosecant",
    "gen_secant",
    "harmonic_power_sum",
    "hurwitz_identity",
    "identity_nine",
    "leading_closed",
    "partition_count",
    "partition_transform",
    "pi_hp",
    "poly_eval",
    "r_poly",
    "riemann_limit",
    "stirling1",
    "stirling1_nested",
    "sym_high_partition",
    "sym_poly",
    "zeta_even_from_cosecant",
]
