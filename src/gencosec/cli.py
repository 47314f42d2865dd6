"""Command-line surface: tables, identity suites, and the benchmark.

Numbers are printed as exact fraction strings unless a subcommand takes
an explicit precision (the default comes from GENCOSEC_PRECISION when
set).  Every run with the same arguments produces identical primary
output; only benchmark timings are exempt.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from .coeffs import beta_ratio, leading_closed
from .exactnum import frac_to_str, poly_eval
from .genseries import COSECANT, SECANT, OracleStream, gen_cosecant, gen_secant, partition_transform
from .partitions import enumerate_partitions
from .refdata import load_table2, load_table3, load_table4
from .stirling import r_poly
from .suites import SUITES, run_suite
from .symzeta import riemann_limit

__all__ = ["main"]

PRECISION_ENV = "GENCOSEC_PRECISION"

#: Largest zeta order accepted, the row depth ``verify`` checks: the
#: zeta(2m) factor builds cosecant row m, which grows steeply past it.
ZETA_M_MAX = 30


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return 50
    try:
        value = int(raw)
    except ValueError as exc:
        raise SystemExit(f"{PRECISION_ENV} must be an integer, got {raw!r}") from exc
    return value


def _emit(rows: list[dict], columns: list[str], args) -> None:
    """Render rows in the selected format and write them out."""
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
        text = buf.getvalue()
    else:
        cells = [[str(row.get(c, "")) for c in columns] for row in rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _row_coeff_strings(poly) -> str:
    return " ".join(frac_to_str(c) for c in poly.coefficients)


def cmd_table1(args) -> int:
    rows = []
    for pm in enumerate_partitions(args.k):
        mults = {str(part): mult for part, mult in sorted(pm.counts)}
        rows.append(
            {
                "partition": str(pm),
                "multiplicities": " ".join(f"{p}:{m}" for p, m in sorted(pm.counts))
                if args.format != "json"
                else mults,
                "length": pm.length,
            }
        )
    _emit(rows, ["partition", "multiplicities", "length"], args)
    return 0


def cmd_table2(args) -> int:
    if args.k_max < 0:
        raise ValueError(f"--k-max must be nonnegative, got {args.k_max}")
    rows = []
    for k in range(args.k_max + 1):
        poly = (
            partition_transform(k, COSECANT, jobs=args.jobs)
            if args.jobs > 1
            else gen_cosecant(k)
        )
        rows.append({"k": k, "coefficients": _row_coeff_strings(poly)})
    _emit(rows, ["k", "coefficients"], args)
    if not args.verify:
        return 0

    failures = 0
    notes = []
    oracle_rows = OracleStream(COSECANT).table(args.k_max)
    for k in range(args.k_max + 1):
        if gen_cosecant(k) != oracle_rows.row(k):
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


def _cmd_series(args, spec, cached_build) -> int:
    poly = (
        partition_transform(args.k, spec, jobs=args.jobs)
        if args.jobs > 1
        else cached_build(args.k)
    )
    if args.rho is None:
        rows = [{"k": args.k, "coefficients": _row_coeff_strings(poly)}]
        _emit(rows, ["k", "coefficients"], args)
    else:
        rho = Fraction(args.rho)
        value = poly_eval(poly, rho)
        rows = [{"k": args.k, "rho": str(rho), "value": frac_to_str(value)}]
        _emit(rows, ["k", "rho", "value"], args)
    return 0


def cmd_cosec(args) -> int:
    return _cmd_series(args, COSECANT, gen_cosecant)


def cmd_secant(args) -> int:
    return _cmd_series(args, SECANT, gen_secant)


def cmd_coeff_closed(args) -> int:
    rows = []
    for ell in range(0, min(args.ell_max, 4) + 1):
        for k in range(ell + 1, args.k_max + 1):
            try:
                value = leading_closed(k, ell)
            except ValueError:
                continue
            rows.append({"k": k, "ell": ell, "value": frac_to_str(value)})
    rows.sort(key=lambda r: (r["k"], r["ell"]))
    _emit(rows, ["k", "ell", "value"], args)
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.suite in ("rho-identities", "oracle", "stirling") and args.k_max:
        kwargs["k_max"] = args.k_max
    if args.suite in ("nine", "hurwitz", "c2v") and args.v_max:
        kwargs["v_max"] = args.v_max
    reports = run_suite(args.suite, **kwargs)
    if args.format == "json":
        text = json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    if args.m > ZETA_M_MAX:
        raise ValueError(f"--m must be at most {ZETA_M_MAX}, got {args.m}")
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


def cmd_bench(args) -> int:
    methods = ("partition", "oracle") if args.method == "both" else (args.method,)
    rows = []
    stream = OracleStream(COSECANT)
    for k in range(1, args.k_max + 1):
        row = {"k": k}
        if "partition" in methods:
            best = None
            for _ in range(args.reps):
                start = time.perf_counter()
                part_row = partition_transform(k, COSECANT, jobs=args.jobs)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            row["partition_s"] = f"{best:.6f}"
        if "oracle" in methods:
            start = time.perf_counter()
            stream.extend()
            row["oracle_s"] = f"{time.perf_counter() - start:.6f}"
        if args.method == "both" and part_row != stream.row(k):
            sys.stderr.write(f"k={k}: methods disagree\n")
            return 1
        rows.append(row)
    columns = ["k"] + [f"{m}_s" for m in methods]
    _emit(rows, columns, args)
    return 0


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
    p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("--ell-max", type=int, default=10, choices=range(1, 11))
    _add_common(p)
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("cosec", help="one cosecant row, optionally evaluated at rho")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", help="rational rho to evaluate at, e.g. 7 or 3/2")
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_cosec)

    p = sub.add_parser("secant", help="one secant row, optionally evaluated at rho")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", help="rational rho to evaluate at, e.g. 7 or 3/2")
    p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("--precision", type=int, default=_default_precision())
    _add_common(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("bench", help="partition vs exp-log timing per order")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--method", choices=("partition", "oracle", "both"), default="both")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
