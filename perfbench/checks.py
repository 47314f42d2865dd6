"""Output checks, run by run.py after the worker has finished timing.

Each checker takes one operation record from the worker and returns None
when the output is right, or a one-line reason when it is not.

- ``rows``: the printed value against the exp-log ``OracleStream`` row
  (the route that shares no code with the partition transform), evaluated
  at the same rho by a Horner loop of this file.
- ``reproduce``: every subcommand exits 0 and prints exactly the bytes
  whose sha256 is recorded in ``digests.json``.
- ``zeta-hp``: ``zeta`` exits 0 (its deviation is inside the bracket), and
  both printed numbers agree with mpmath to the precision they claim,
  less ``MARGIN_DIGITS``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import workloads

#: Digits of the claimed precision that a high-precision value may lose
#: against the mpmath reference before it counts as wrong.
MARGIN_DIGITS = 5

#: Digits mpmath carries beyond the largest precision checked.
REFERENCE_GUARD = 20

Checker = Callable[[dict], Optional[str]]


def _common(record: dict) -> Optional[str]:
    if record["error"]:
        return record["error"]
    bad = [(cmd[0], rc) for cmd, rc in zip(record["commands"], record["rc"]) if rc != 0]
    if bad:
        return f"non-zero exit: {bad}"
    return None


def rows_checker() -> Checker:
    from gencosec.genseries import COSECANT, SECANT, OracleStream

    oracle = {
        "cosec": OracleStream(COSECANT).row(workloads.ROWS_K).coefficients,
        "secant": OracleStream(SECANT).row(workloads.ROWS_K).coefficients,
    }

    def check(record: dict) -> Optional[str]:
        problem = _common(record)
        if problem:
            return problem
        (argv,) = record["commands"]
        rho = Fraction(argv[-1].split("=", 1)[1])
        expected = Fraction(0)
        for c in reversed(oracle[argv[0]]):
            expected = expected * rho + c
        printed = Fraction(record["stdout"][0].split()[-1])
        if printed != expected:
            return f"{' '.join(argv)}: printed {printed}, oracle gives {expected}"
        return None

    return check


def reproduce_checker(digest_path: Path) -> Checker:
    digests = json.loads(digest_path.read_text())["sha256"]

    def check(record: dict) -> Optional[str]:
        problem = _common(record)
        if problem:
            return problem
        for argv, out in zip(record["commands"], record["stdout"]):
            key = " ".join(argv)
            got = hashlib.sha256(out.encode()).hexdigest()
            if digests.get(key) != got:
                return f"{key}: stdout sha256 {got[:16]}... differs from the recorded digest"
        return None

    return check


def _digamma_difference(mp, a, b):
    """psi(b) - psi(a), shifting both arguments up by recurrence first.

    mpmath's digamma is slow at arguments small against the working
    precision; psi(x) = psi(x + N) - sum_{j<N} 1/(x + j) moves them to
    where its asymptotic series is cheap.
    """
    shift = max(0, int(mp.dps) - int(min(a, b)))
    partial = mp.fsum(1 / (b + j) - 1 / (a + j) for j in range(shift))
    return mp.digamma(b + shift) - mp.digamma(a + shift) - partial


def asymptotic_reference(mp, v: int):
    """The "printed" c_{2v,v-1} bracket times its prefactor, in mpmath.

    beta(x) = sum_j (-1)**j / (x + j) = (psi((x+1)/2) - psi(x/2)) / 2,
    taken at x = v + 1/2.
    """
    x = mp.mpf(2 * v + 1) / 2
    beta = _digamma_difference(mp, x / 2, (x + 1) / 2) / 2
    sign = 1 if (v - 1) % 2 == 0 else -1
    bracket = (
        mp.pi / 4
        + sign * beta / 2
        + mp.mpf(sign * (v // 2)) / (2 * v)
        - mp.mpf(5 * (1 - (-1) ** v)) / (8 * v)
        + mp.mpf(3) / (4 * v) * sign * beta / 2
    )
    return bracket * mp.binomial(2 * v - 1, v) / mp.mpf(2) ** (2 * v - 2)


def _parse_zeta(stdout: str) -> dict:
    header, values = stdout.strip().splitlines()[:2]
    return dict(zip(header.split(), values.split()))


def zeta_checker() -> Checker:
    import mpmath

    mp = mpmath.mp

    def close(got, want, digits: int, relative: bool) -> bool:
        scale = abs(want) if relative else 1
        return abs(got - want) <= scale * mp.mpf(10) ** (-(digits - MARGIN_DIGITS))

    def check(record: dict) -> Optional[str]:
        problem = _common(record)
        if problem:
            return problem
        (argv,) = record["commands"]
        v, precision = record["asymptotic_args"]
        row = _parse_zeta(record["stdout"][0])
        m = int(row["m"])
        if row["within_bounds"] != "True":
            return f"{' '.join(argv)}: deviation outside its bracket"
        with mp.workdps(precision + REFERENCE_GUARD):
            tail = mp.zeta(2 * m, v)
            partial = mp.zeta(2 * m) - tail
            if not close(mp.mpf(row["estimate"]), partial, precision, relative=True):
                return f"{' '.join(argv)}: estimate differs from zeta(2m) - zeta(2m, v)"
            # a difference of two values near zeta(2m): absolute digits only
            if not close(mp.mpf(row["deviation"]), tail, precision, relative=False):
                return f"{' '.join(argv)}: deviation differs from zeta(2m, v)"
            want = asymptotic_reference(mp, v)
            if not close(mp.mpf(record["asymptotic"]), want, precision, relative=True):
                return f"c2v_vm1_asymptotic({v}, {precision}) differs from the mpmath bracket"
        return None

    return check


def checker_for(workload: str, bench_dir: Path) -> Checker:
    if workload == "rows":
        return rows_checker()
    if workload == "reproduce":
        return reproduce_checker(bench_dir / "digests.json")
    if workload == "zeta-hp":
        return zeta_checker()
    raise ValueError(f"no checker for workload {workload!r}")
