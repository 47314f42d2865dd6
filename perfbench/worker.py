"""Run one workload in this (fresh) interpreter; print raw results as JSON.

``run.py`` starts one worker per workload, one at a time, so peak RSS
belongs to that workload alone.  The worker imports gencosec from the
checkout's ``src``, runs one warm-up operation that the statistics leave
out, then runs operations back to back for the requested seconds.  Every
operation starts cold: each discovered ``functools`` cache is cleared and
garbage is collected before the clock starts.  The host-speed probe runs
just before and just after each operation, outside its timed region.  ``stirling._rows`` (the
Stirling triangle) has no public reset and stays warm; it is a small
integer table.

With ``--trace 1`` each drawn operation runs twice, untraced and then
traced, so the tracing cost is the ratio of the two medians over the same
operations.
With ``--profile`` the loop runs under cProfile and the top frames are
printed instead of results; that mode is never used for measurement.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import pstats
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: At least this many measured operations, however slow each one is.
MIN_OPS = 3

#: Frames printed per sort order in profile mode.
PROFILE_TOP = 25


def _load_package():
    modules = tracing.package_modules()
    origin = Path(modules[tracing.PACKAGE].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"gencosec imported from {origin}, not from this checkout")
    return modules


def measure(args) -> dict:
    modules = _load_package()
    caches = tracing.discover_caches(modules)
    tracer = tracing.Tracer(modules) if args.trace else None
    ops = workloads.operations(args.workload, args.seed)
    probe = hostspeed.FOR_WORKLOAD[args.workload].run
    records = []
    cache_stats: dict[str, list[int]] = {}

    def run_one(op: workloads.Op, warmup: bool, traced: bool) -> None:
        tracing.reset_caches(caches)
        gc.collect()
        probe_before = probe()
        if traced:
            tracer.install(len(records))
        start = time.perf_counter()
        result = workloads.execute(op, modules)
        latency = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracing.add_cache_counts(cache_stats, caches)
        result.update(
            commands=op.commands,
            asymptotic_args=op.asymptotic,
            latency_s=latency,
            probe_s=(probe_before + probe()) / 2,
            warmup=warmup,
            traced=traced,
        )
        records.append(result)

    run_one(next(ops), warmup=True, traced=False)
    loop_start = time.perf_counter()
    measured = 0
    while measured < MIN_OPS or time.perf_counter() - loop_start < args.seconds:
        op = next(ops)
        for traced in (False, True) if args.trace else (False,):
            run_one(op, warmup=False, traced=traced)
            measured += 1
    loop_wall = time.perf_counter() - loop_start

    report = {
        "ops": records,
        "loop_wall_s": loop_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": sorted(caches),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["cache_stats"] = cache_stats
        report["row_bits_max"] = tracer.row_bits_max
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.spans.write(args.spans)
    return report


def profile(args) -> str:
    """Top frames of the workload's operations under cProfile."""
    modules = _load_package()
    caches = tracing.discover_caches(modules)
    ops = workloads.operations(args.workload, args.seed)
    workloads.execute(next(ops), modules)  # warm-up, not profiled
    profiler = cProfile.Profile()
    start = time.perf_counter()
    count = 0
    while count < 1 or time.perf_counter() - start < args.seconds:
        op = next(ops)
        tracing.reset_caches(caches)
        gc.collect()
        profiler.enable()
        workloads.execute(op, modules)
        profiler.disable()
        count += 1
    out = io.StringIO()
    out.write(f"{args.workload}: {count} operations profiled\n")
    stats = pstats.Stats(profiler, stream=out)
    for key in ("tottime", "cumulative"):
        out.write(f"\n-- top {PROFILE_TOP} frames by {key} --\n")
        stats.sort_stats(key).print_stats(PROFILE_TOP)
    return out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here (.tsv.gz)")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()
    if args.profile:
        sys.stdout.write(profile(args))
    else:
        sys.stdout.write(json.dumps(measure(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
