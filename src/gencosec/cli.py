"""Command-line surface: tables, rows, identity suites and zeta estimates.

Numbers are printed as exact fraction strings unless a subcommand takes
an explicit precision (the default comes from GENCOSEC_PRECISION when
set).  Every run with the same arguments produces identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import itertools
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from .coeffs import beta_ratio, leading_closed
from .exactnum import frac_to_str, poly_eval
from .genseries import COSECANT, OracleStream, gen_cosecant, gen_secant
from .partitions import enumerate_partitions, partition_count
from .refdata import load_table2, load_table3
from .stirling import ELL_MAX, r_poly
from .suites import SUITES, suite_all
from .symzeta import riemann_limit

__all__ = ["main"]

PRECISION_ENV = "GENCOSEC_PRECISION"

#: Largest zeta order accepted, the row depth ``verify`` checks: the
#: zeta(2m) factor builds cosecant row m, which grows steeply past it.
ZETA_M_MAX = 30

#: Largest ``zeta --v``.  The exact power sum dominates, and its cost
#: grows like (m v)**2: at the caps (m = 30, v = 5000) a run takes 5.2 s
#: at precision 2000 and 5.9 s at ZETA_PRECISION_MAX; at m = 5 it takes
#: 0.4 s (2-vCPU x86-64, CPython 3.11).
ZETA_V_MAX = 5000

#: Largest ``zeta --precision``.  pi and the Decimal steps grow like P**2:
#: m = 5, v = 3000 takes 0.56 s at this cap (2.75 s at P = 50000).
ZETA_PRECISION_MAX = 20000

#: Deepest row order accepted by ``cosec``/``secant --k``, ``table2 --k-max``,
#: ``table3 --ks``, ``coeff-closed --k-max`` and ``verify --k-max``
#: (``verify --v-max`` one more).  One row at this order takes about 2 s,
#: and all rows up to it about 40 s (2-vCPU x86-64, CPython 3.11).
ROW_K_MAX = 100

#: Most rows ``table1`` prints; partition_count(45) = 89134 is the deepest
#: order under it.
TABLE1_ROWS_MAX = 10**5


def _write_json(value, out) -> None:
    """``json.dump(value, out, indent=2)`` and a newline, in batches.

    The indented encoder yields one small piece per token.  Joining 4096 of
    them (about 50 kB) per write means a large ``verify`` report is held
    neither as one list of pieces nor sent to ``out`` as thousands of tiny
    writes.
    """
    pieces = json.JSONEncoder(indent=2).iterencode(value)
    while batch := "".join(itertools.islice(pieces, 4096)):
        out.write(batch)
    out.write("\n")


def _emit(rows: list[dict], columns: list[str], args) -> None:
    """Render rows in the selected format and write them out."""
    try:
        sink = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    with sink as out:
        if args.format == "json":
            _write_json(rows, out)
        elif args.format == "csv":
            writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({c: row.get(c, "") for c in columns})
        else:
            cells = [[str(row.get(c, "")) for c in columns] for row in rows]
            widths = [
                max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
                for i, col in enumerate(columns)
            ]
            lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
            for r in cells:
                lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            out.write("\n".join(lines) + "\n")


def _row_coeff_strings(poly) -> str:
    return " ".join(frac_to_str(c) for c in poly.coefficients)


def _check_row_order(flag: str, k: int) -> None:
    if not 0 <= k <= ROW_K_MAX:
        raise ValueError(f"{flag} must be in 0..{ROW_K_MAX}, got {k}")


def cmd_table1(args) -> int:
    count = partition_count(args.k)
    if count > TABLE1_ROWS_MAX:
        raise ValueError(
            f"--k {args.k} has {count} partitions; table1 prints at most {TABLE1_ROWS_MAX}"
        )
    rows = []
    for parts in enumerate_partitions(args.k):
        mults = sorted(Counter(parts).items())
        rows.append(
            {
                "partition": "{" + ",".join(map(str, parts)) + "}",
                "multiplicities": {str(p): m for p, m in mults}
                if args.format == "json"
                else " ".join(f"{p}:{m}" for p, m in mults),
                "length": len(parts),
            }
        )
    _emit(rows, ["partition", "multiplicities", "length"], args)
    return 0


def cmd_table2(args) -> int:
    _check_row_order("--k-max", args.k_max)
    rows = [
        {"k": k, "coefficients": _row_coeff_strings(gen_cosecant(k))}
        for k in range(args.k_max + 1)
    ]
    _emit(rows, ["k", "coefficients"], args)
    if not args.verify:
        return 0

    failures = 0
    notes = []
    oracle = OracleStream(COSECANT)
    for k in range(args.k_max + 1):
        if gen_cosecant(k) != oracle.row(k):
            notes.append(f"k={k}: partition and exp-log methods DISAGREE")
            failures += 1
    printed_rows, diffs = load_table2()
    expected = {(d["k"], d["power"]): d for d in diffs}
    for ref in printed_rows:
        if ref.k > args.k_max:
            continue
        computed = gen_cosecant(ref.k).coefficients
        for power, (p, c) in enumerate(zip(ref.rational_coefficients(), computed)):
            if p == c:
                continue
            diff = expected.get((ref.k, power))
            if diff is None:
                notes.append(
                    f"k={ref.k} rho^{power}: UNEXPECTED diff from printed table "
                    f"(printed {p}, computed {c})"
                )
                failures += 1
            else:
                notes.append(
                    f"k={ref.k} rho^{power}: printed {diff['printed']} resolved to "
                    f"{diff['computed']} (both methods agree)"
                )
    if not notes:
        notes.append("all rows match the printed table and both methods agree")
    for line in notes:
        sys.stderr.write(line + "\n")
    return 1 if failures else 0


def cmd_table3(args) -> int:
    fixture = load_table3()
    statuses = {(c["rho"], c["k"]): c for c in fixture["cells"]}
    rhos = args.rhos or fixture["rhos"]
    ks = args.ks or fixture["ks"]
    for k in ks:
        _check_row_order("--ks", k)
    rows = []
    for rho in rhos:
        row = {"rho": rho}
        remarks = []
        for k in ks:
            value = beta_ratio(rho, k)
            row[f"k={k}"] = value
            cell = statuses.get((rho, k))
            if cell is not None and cell["status"] != "matches_truncation":
                kind = (
                    "rounded, not truncated"
                    if cell["status"] == "matches_rounding"
                    else "misprint"
                )
                remarks.append(f"k={k}: printed {cell['printed']} ({kind})")
        row["notes"] = "; ".join(remarks)
        rows.append(row)
    _emit(rows, ["rho"] + [f"k={k}" for k in ks] + ["notes"], args)
    return 0


def cmd_table4(args) -> int:
    rows = []
    for ell in range(1, args.ell_max + 1):
        poly = r_poly(ell)
        rows.append({"ell": ell, "coefficients": _row_coeff_strings(poly)})
    _emit(rows, ["ell", "coefficients"], args)
    return 0


def _cmd_series(args, build) -> int:
    _check_row_order("--k", args.k)
    if args.rho is None:
        rows = [{"k": args.k, "coefficients": _row_coeff_strings(build(args.k))}]
        _emit(rows, ["k", "coefficients"], args)
        return 0
    # parsed before the row is built, so a bad rho is refused at once
    try:
        rho = Fraction(args.rho)
    except ZeroDivisionError:
        raise ValueError(f"--rho {args.rho} has a zero denominator") from None
    value = poly_eval(build(args.k), rho)
    rows = [{"k": args.k, "rho": str(rho), "value": frac_to_str(value)}]
    _emit(rows, ["k", "rho", "value"], args)
    return 0


def cmd_cosec(args) -> int:
    return _cmd_series(args, gen_cosecant)


def cmd_secant(args) -> int:
    return _cmd_series(args, gen_secant)


def cmd_coeff_closed(args) -> int:
    _check_row_order("--k-max", args.k_max)
    if not 0 <= args.ell_max <= ELL_MAX:
        raise ValueError(f"--ell-max must be in 0..{ELL_MAX}, got {args.ell_max}")
    rows = []
    for ell in range(args.ell_max + 1):
        for k in range(ell + 1, args.k_max + 1):
            value = frac_to_str(leading_closed(k, ell))
            rows.append({"k": k, "ell": ell, "value": value})
    rows.sort(key=lambda r: (r["k"], r["ell"]))
    _emit(rows, ["k", "ell", "value"], args)
    return 0


def cmd_verify(args) -> int:
    # a range flag is passed on only to a suite whose function takes it;
    # the v suites build cosecant rows up to v_max - 1
    suite = suite_all if args.suite == "all" else SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    kwargs = {}
    for name, limit in (("k_max", ROW_K_MAX), ("v_max", ROW_K_MAX + 1)):
        value = getattr(args, name)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name not in takes:
            raise ValueError(f"--suite {args.suite} does not take {flag}")
        if not 1 <= value <= limit:
            raise ValueError(f"{flag} must be in 1..{limit}, got {value}")
        kwargs[name] = value
    reports = suite(**kwargs)
    if args.format == "json":
        rows = [r.as_dict() for r in reports]
    else:
        rows = [
            {
                "identity": r.name,
                "params": " ".join(f"{k}={v}" for k, v in sorted(r.params.items())),
                "equal": r.equal,
                "asserted": r.asserted,
                "note": r.note,
            }
            for r in reports
        ]
    _emit(rows, ["identity", "params", "equal", "asserted", "note"], args)
    failed = [r for r in reports if r.asserted and not r.equal]
    summary = f"{len(reports)} checks, {len(failed)} failures"
    sys.stderr.write(summary + "\n")
    return 1 if failed else 0


def cmd_zeta(args) -> int:
    for flag, value, limit in (
        ("--m", args.m, ZETA_M_MAX),
        ("--v", args.v, ZETA_V_MAX),
        ("--precision", args.precision, ZETA_PRECISION_MAX),
    ):
        if value > limit:
            raise ValueError(f"{flag} must be at most {limit}, got {value}")
    result = riemann_limit(args.m, args.v, args.precision)
    within = result.bounds[0] < result.deviation < result.bounds[1]
    rows = [
        {
            "m": args.m,
            "v": args.v,
            "precision": args.precision,
            "estimate": str(result.estimate),
            "deviation": str(result.deviation),
            "lower": str(result.bounds[0]),
            "upper": str(result.bounds[1]),
            "within_bounds": within,
        }
    ]
    _emit(
        rows,
        ["m", "v", "precision", "estimate", "deviation", "lower", "upper", "within_bounds"],
        args,
    )
    return 0 if within else 1


def _add_common(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default=default_format,
        help="output format",
    )
    parser.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencosec",
        description="Generalized cosecant numbers: exact rows, identity suites, tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="partition/multiplicity/length table for one order")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="cosecant rows as exact coefficient fractions")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check methods and printed table")
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "table3",
        aliases=["beta-table"],
        help="accuracy-ratio grid, 6 decimals truncated",
    )
    p.add_argument("--rhos", type=int, nargs="+", help="rho values (default: published grid)")
    p.add_argument("--ks", type=int, nargs="+", help="k values (default: published grid)")
    _add_common(p)
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("table4", help="Stirling-ratio polynomials r_ell")
    p.add_argument("--ell-max", type=int, default=ELL_MAX, choices=range(1, ELL_MAX + 1))
    _add_common(p)
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("cosec", help="one cosecant row, optionally evaluated at rho")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", help="rational rho to evaluate at, e.g. 7 or 3/2")
    _add_common(p)
    p.set_defaults(func=cmd_cosec)

    p = sub.add_parser("secant", help="one secant row, optionally evaluated at rho")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", help="rational rho to evaluate at, e.g. 7 or 3/2")
    _add_common(p)
    p.set_defaults(func=cmd_secant)

    p = sub.add_parser("coeff-closed", help="closed-form leading coefficients (k, ell, value)")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--ell-max", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_coeff_closed)

    p = sub.add_parser("verify", help="run an identity suite, report every instance")
    p.add_argument("--suite", choices=["all"] + sorted(SUITES), default="all")
    p.add_argument("--k-max", type=int, help="override k range where applicable")
    p.add_argument("--v-max", type=int, help="override v range where applicable")
    _add_common(p, default_format="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeta", help="finite-v estimate of zeta(2m) with deviation bracket")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    # a string default is converted by ``type`` only when zeta runs
    p.add_argument("--precision", type=int, default=os.environ.get(PRECISION_ENV, "50"))
    _add_common(p)
    p.set_defaults(func=cmd_zeta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refuse a missing --out directory before any work; the file itself
        # is opened, and so truncated, only by _emit
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"cannot write --out {args.out}: no such directory")
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
