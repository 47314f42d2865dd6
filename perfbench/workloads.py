"""Workload definitions: operations drawn from a seed, and how one runs.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished.  An operation is one or more
real CLI invocations (``gencosec.cli.main(argv)`` in-process, with stdout
and stderr captured), optionally followed by a public library call where
the CLI has no command.  The program only ever sees the generated argv.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from types import ModuleType
from typing import Iterator

#: Row order of the ``rows`` workload: the deepest order whose cold
#: partition-transform row still fits many times into one run.
ROWS_K = 30

#: The paper reproduction, one subcommand per printed table or suite.
REPRODUCE = (
    ("verify", "--suite", "all"),
    ("table2", "--k-max", "30", "--verify"),
    ("table3",),
    ("table4",),
    ("coeff-closed", "--k-max", "12"),
    ("table1", "--k", "12"),
)

ZETA_M = (1, 2, 3, 4, 5)
ZETA_V = (1000, 3000)
ZETA_PRECISION = (1000, 2000)


@dataclass(frozen=True)
class Op:
    """CLI argv lists run in order, then c2v_vm1_asymptotic(*asymptotic)."""

    commands: tuple[tuple[str, ...], ...]
    asymptotic: tuple[int, int] | None = None


def _rows(rng: random.Random) -> Iterator[Op]:
    while True:
        family = rng.choice(("cosec", "secant"))
        p = rng.randint(1, 10**6) * rng.choice((1, -1))
        q = rng.randint(1, 10**6)
        # "--rho=-3/7": a separate negative value would parse as an option
        yield Op(((family, "--k", str(ROWS_K), f"--rho={p}/{q}"),))


def _reproduce(rng: random.Random) -> Iterator[Op]:
    while True:
        yield Op(tuple(rng.sample(REPRODUCE, len(REPRODUCE))))


def _draw(rng: random.Random, lo: int, hi: int, stratum: int, strata: int) -> int:
    """A uniform draw from the given one of ``strata`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / strata
    return lo + int(width * (stratum + rng.random()))


def _zeta_hp(rng: random.Random) -> Iterator[Op]:
    # Op latency spans 0.1-1.1 s and depends jointly on m, v and P, so a
    # plain random draw moves a run's median with the draws.  Each block
    # of 25 operations instead pairs every m with every fifth of the v
    # range once, and picks the fifth of the P range by a Latin square, so
    # every run sees nearly the same latency mix; the seed draws the
    # values inside each fifth and the order.
    n = len(ZETA_M)
    while True:
        block = []
        for i, m in enumerate(ZETA_M):
            for j in range(n):
                v = _draw(rng, *ZETA_V, j, n)
                p = _draw(rng, *ZETA_PRECISION, (i + j) % n, n)
                argv = ("zeta", "--m", str(m), "--v", str(v), "--precision", str(p))
                block.append(Op((argv,), asymptotic=(v, p)))
        rng.shuffle(block)
        yield from block


GENERATORS = {"rows": _rows, "reproduce": _reproduce, "zeta-hp": _zeta_hp}


def operations(workload: str, seed: int) -> Iterator[Op]:
    """The endless operation stream of one workload; same seed, same ops."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def execute(op: Op, modules: dict[str, ModuleType]) -> dict:
    """Run one operation; return exit codes, outputs and any error.

    Names are looked up on the modules at call time, so a traced run
    reaches the wrapped bindings.
    """
    record: dict = {"rc": [], "stdout": [], "asymptotic": None, "error": None}
    try:
        for argv in op.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = modules["cli"].main(list(argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            record["rc"].append(rc)
            record["stdout"].append(out.getvalue())
        if op.asymptotic is not None:
            v, precision = op.asymptotic
            value = modules["coeffs"].c2v_vm1_asymptotic(v, precision)
            record["asymptotic"] = str(value)
    except Exception as exc:  # one failed operation must not end the run
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record
