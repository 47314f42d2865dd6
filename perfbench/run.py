"""gencosec benchmark: closed-loop workloads with end-to-end and layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload rows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                         # every workload, untraced
    python3 perfbench/run.py --workload reproduce --trace 1
    python3 perfbench/run.py --workload zeta-hp --profile

Each workload runs in a fresh worker interpreter (``worker.py``), one at a
time.  Set-up time comes from separate fresh interpreters that only import
``gencosec.cli`` and build its parser.  Outputs are checked here, after
timing.  The metric names, units and bounds are read from BENCHMARK.json.

Every end-to-end time is reported at the host's reference speed: each
measured time is scaled by the workload's host-speed probe, timed next to
it (see ``hostspeed.py``).  The raw wall-clock figures are in
``detail.raw``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  The lines
before it give the environment, a summary per workload and the details
(tail percentile, sample counts, error rate, failure reasons).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s; one more runs first, untimed, so
#: that byte-compilation and a cold file cache do not count.
SETUP_PROBES = 11
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import gencosec.cli\n"
    "gencosec.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

#: Where a traced run writes its spans when it ends.
SPANS_DIR = ROOT / ".perfbench_out"

#: A worker that has not finished by then has failed the run.
WORKER_TIMEOUT_S = 150

#: Per-layer names that sum the functions whose names start with a prefix.
LAYER_GROUPS = {"refdata.load": "refdata.load_"}

#: Per-layer statistics that the tracer reports for every layer.
LAYER_STATS = ("calls", "yielded", "errors", "self_s", "total_s")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(*args: str, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, "-s", *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return proc.stdout


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, host probe seconds) for each timed set-up interpreter."""
    _python("-c", SETUP_CODE, timeout=60)
    samples = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.FRACTION.run()
        seconds = float(_python("-c", SETUP_CODE, timeout=60))
        samples.append((seconds, (before + hostspeed.FRACTION.run()) / 2))
    return samples


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def layer_value(name: str, report: dict, measured: list[dict]) -> float:
    """One per-layer metric, per traced operation unless it is a ratio."""
    traced = [r for r in measured if r["traced"]]
    if name == "trace.overhead_ratio":
        plain = [r["latency_s"] for r in measured if not r["traced"]]
        return stats.median([r["latency_s"] for r in traced]) / stats.median(plain)
    if name == "genseries.row_bits_max":
        return report["row_bits_max"]
    if name == "cli.output_bytes":
        return statistics.fmean(sum(len(s.encode()) for s in r["stdout"]) for r in measured)
    layer, stat = name.rsplit(".", 1)
    if stat == "hit_ratio":
        hits, misses = report["cache_stats"].get(layer, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0
    if stat not in LAYER_STATS:
        raise ValueError(f"per-layer metric {name!r} has no known statistic")
    prefix = LAYER_GROUPS.get(layer)
    members = [
        entry
        for key, entry in report["layers"].items()
        if key == layer or (prefix and key.startswith(prefix))
    ]
    return sum(entry[stat] for entry in members) / len(traced)


def run_workload(spec: dict, workload: str, args) -> dict:
    setup = measure_setup()
    checker = checks.checker_for(workload, HERE)
    worker_args = [
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}-seed{args.seed}.tsv.gz"
        worker_args.append(f"--spans={spans}")
    report = json.loads(_python(*worker_args, timeout=WORKER_TIMEOUT_S).splitlines()[-1])

    failures = []
    for record in report["ops"]:
        try:
            reason = checker(record)
        except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason:
            failures.append(reason)
    measured = [r for r in report["ops"] if not r["warmup"]]
    untraced = [r for r in measured if not r["traced"]]
    probe = hostspeed.FOR_WORKLOAD[workload]
    plain = [probe.at_reference_speed(r["latency_s"], r["probe_s"]) for r in untraced]
    raw = [r["latency_s"] for r in untraced]
    tail = stats.tail(plain)
    end_to_end = {
        "setup_s": stats.median([hostspeed.FRACTION.at_reference_speed(*s) for s in setup]),
        "latency_p50_s": stats.median(plain),
        "latency_tail_s": tail.value,
        "ops_per_s": len(plain) / sum(plain),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: layer_value(name, report, measured) for name in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {name: end_to_end[name] for name in names}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = len(report["ops"])
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        "detail": {
            "error_rate": len(failures) / attempted,
            "failures": failures[:10],
            "measured_ops": len(measured),
            "traced_ops": sum(r["traced"] for r in measured),
            "warmup_latency_s": report["ops"][0]["latency_s"],
            "latency_tail": tail._asdict(),
            "latencies_s": plain,
            "raw": {
                "latency_p50_s": stats.median(raw),
                "latency_tail_s": stats.tail(raw).value,
                "ops_per_s": len(measured) / report["loop_wall_s"],
                "setup_s": stats.median([seconds for seconds, _ in setup]),
                "latencies_s": raw,
                "probe_s": [r["probe_s"] for r in untraced],
            },
            "setup_samples_s": setup,
            "caches_reset": report["caches"],
            "spans": report.get("spans", 0),
        },
    }


def _summary(result: dict) -> str:
    cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    detail = result["detail"]
    tail = detail["latency_tail"]
    cells.append(
        f"error_rate={detail['error_rate']:.6g} ({result['failed']}/{result['attempted']})"
    )
    cells.append(
        f"tail=p{tail['percentile']:.1f} of {tail['samples']} ops ({tail['beyond']} beyond)"
    )
    return f"{result['workload']}: " + "  ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *sorted(workloads.GENERATORS)]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the top cProfile frames per workload instead of measuring",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gencosec" / "__init__.py").is_file():
        sys.stderr.write(f"no gencosec sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]

    if args.profile:
        for name in names:
            sys.stdout.write(
                _python(
                    str(HERE / "worker.py"),
                    f"--workload={name}",
                    f"--seed={args.seed}",
                    f"--seconds={args.seconds}",
                    "--profile",
                    timeout=WORKER_TIMEOUT_S,
                )
            )
        return 0

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    results = []
    for name in names:
        try:
            result = run_workload(spec, name, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 1
        results.append(result)
        print(_summary(result), flush=True)
        print("detail " + json.dumps({name: result["detail"]}), flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "results": results}, indent=2) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
