#!/usr/bin/env python3
"""The performance ledger's one command.

``python perf/run.py``                      every workload, every end-to-end metric
``python perf/run.py --traced``             ... and the per-layer table of each
``python perf/run.py --calibrate``          two sets back to back, compared
``python perf/run.py --workload W --seed S --seconds T --trace 0|1``
                                            one run, one JSON line (the driver's form);
                                            supervised, see ``session.py``

Runs from a clean checkout with nothing installed: ``<repo>/src`` goes on
``sys.path`` here and on the children's ``PYTHONPATH``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
SRC = REPO / "src"
OUT = PERF / "out"
MANIFEST = REPO / "BENCHMARK.json"


def percentile(values: "list[float]", percent: float) -> float:
    """Linear-interpolated percentile (``percent`` in 0..100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * percent / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: "list[float]") -> "list[float]":
    return [percentile(values, p) for p in (25.0, 50.0, 75.0)]


def end_to_end(measurement: Any, verdict: Any, tail: float) -> "dict[str, float]":
    """The end-to-end metrics of one measured, verified run."""
    wall = statistics.median(measurement.wall_s)
    verified = measurement.ops_per_pass * (1.0 - verdict.failed / verdict.attempted)

    def latency(percent: float) -> float:
        return statistics.fmean(
            percentile(stratum, percent) for stratum in measurement.latencies_ms
        )

    return {
        "setup_s": statistics.median(measurement.setup_s),
        "wall_s": wall,
        "cpu_s": statistics.median(measurement.cpu_s),
        "ops_per_s": verified / wall,
        "peak_rss_mb": measurement.peak_rss_mb,
        "lat_p50_ms": latency(50.0),
        "lat_tail_ms": latency(tail),
    }


def provenance(seed: int) -> "dict[str, Any]":
    """Where and when a result was taken."""

    def git(*argv: str) -> "str | None":
        if not (REPO / ".git").exists():
            return None
        done = subprocess.run(
            ["git", "-C", str(REPO), *argv], capture_output=True, text=True, check=False
        )
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def manifest() -> "dict[str, Any]":
    return json.loads(MANIFEST.read_text())


def with_units(values: "dict[str, Any]", declared: "list[dict[str, Any]]") -> "dict[str, Any]":
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise SystemExit(f"perf: metrics out of step with BENCHMARK.json: {missing} {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_one(args: argparse.Namespace) -> int:
    """One workload, one run; the last stdout line is the driver's JSON object."""
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perf: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.QUICK if args.quick else workloads.FULL.scaled(args.seconds)
    golden = verify.load_golden(Path(args.golden)) if args.golden else None
    stamp = provenance(args.seed)
    detail: "dict[str, Any]" = {"workload": workload.name, "trace": args.trace}
    if args.trace:
        import probes

        values, verdict, tables = probes.traced_run(workload, args.seed, sizes, OUT)
        metrics = with_units(values, manifest()["per_layer"])
        detail["layer_table"] = tables
    else:
        measurement = workload.run(args.seed, sizes)
        verdict = verify.check(measurement, sizes, golden)
        values = end_to_end(measurement, verdict, workload.tail)
        metrics = with_units(values, manifest()["end_to_end"])
        detail["samples"] = {
            "passes": len(measurement.wall_s),
            "setup_repeats": len(measurement.setup_s),
            "latencies": sum(len(stratum) for stratum in measurement.latencies_ms),
            "ops_per_pass": measurement.ops_per_pass,
            "tail_percentile": workload.tail,
        }
        detail["quartiles"] = {
            "wall_s": quartiles(measurement.wall_s),
            "cpu_s": quartiles(measurement.cpu_s),
        }
        detail["machine"] = {
            "raw_wall_s": statistics.median(measurement.raw_wall_s),
            "ref_ms": statistics.median(measurement.ref_ms),
        }
    stamp["loadavg_end"] = list(os.getloadavg())
    line = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }
    detail.update(line, notes=verdict.notes, digests=verdict.digests, provenance=stamp)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}.trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    for note in verdict.notes:
        print(f"perf: FAILED {note}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if verdict.failed == 0 else 1


# -- every workload ------------------------------------------------------------


def spawn_run(args: argparse.Namespace, workload: str, trace: int) -> "dict[str, Any]":
    """A fresh interpreter for one workload; returns its detail record."""
    argv = [
        sys.executable, str(PERF / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        argv.append("--quick")
    if args.golden:
        argv += ["--golden", args.golden]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    path = OUT / f"{workload}.trace{trace}.json"
    if done.returncode not in (0, 1) or not path.exists():
        raise SystemExit(f"perf: {workload} (trace {trace}) died with {done.returncode}")
    return json.loads(path.read_text())


def print_metrics(detail: "dict[str, Any]", bounds: "dict[str, float]") -> None:
    for name, metric in detail["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
        print(f"  {name:<34} {shown:>12} {metric['unit']:<6}{bound}")


def print_result(detail: "dict[str, Any]", bounds: "dict[str, float]") -> None:
    samples = detail["samples"]
    print(
        f"\n{detail['workload']}: ops {detail['attempted']} failed_ops {detail['failed']}"
        f"  passes {samples['passes']}  set-ups {samples['setup_repeats']}"
        f"  latency samples {samples['latencies']} (tail p{samples['tail_percentile']:g})"
    )
    print_metrics(detail, bounds)
    wall = detail["quartiles"]["wall_s"]
    machine = detail["machine"]
    print(
        f"  wall_s quartiles {wall[0]:.4g} / {wall[1]:.4g} / {wall[2]:.4g};"
        f" raw wall {machine['raw_wall_s']:.4g} s at reference {machine['ref_ms']:.3g} ms"
    )


def print_layers(detail: "dict[str, Any]") -> None:
    print(f"\n{detail['workload']}: traced pass, self time per layer")
    print(f"  {'layer':<14} {'seconds':>10} {'share':>7} {'spans':>6}")
    for row in detail["layer_table"]:
        print(
            f"  {row['layer']:<14} {row['seconds']:>10.4f} {row['share']:>6.1%}"
            f" {row['count']:>6}"
        )
    print_metrics(detail, {})


def run_set(args: argparse.Namespace, traced: bool) -> "tuple[dict[str, Any], int]":
    """Every workload once; returns ``workload -> detail`` and the failed ops."""
    import workloads

    bounds = {m["name"]: m["bound"] for m in manifest()["end_to_end"]}
    results = {}
    failed = 0
    for name in workloads.WORKLOADS:
        detail = spawn_run(args, name, 0)
        print_result(detail, bounds)
        results[name] = detail
        failed += detail["failed"]
        if traced:
            layers = spawn_run(args, name, 1)
            print_layers(layers)
            results[f"{name}#traced"] = layers
            failed += layers["failed"]
    serial, parallel = results["table1_cli"]["digests"], results["table1_jobs"]["digests"]
    if any(parallel[table] != digest for table, digest in serial.items() if table in parallel):
        print("perf: FAILED table1_jobs printed other bytes than table1_cli", file=sys.stderr)
        failed += results["table1_jobs"]["attempted"]
    return results, failed


def run_all(args: argparse.Namespace) -> int:
    results, failed = run_set(args, args.traced)
    ledger = {"provenance": provenance(args.seed), "quick": args.quick, "results": results}
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nfailed_ops {failed}; details in {OUT.relative_to(REPO)}/ledger.json")
    return 0 if failed == 0 else 1


def calibrate(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    declared = manifest()["end_to_end"]
    first, failed_first = run_set(args, False)
    second, failed_second = run_set(args, False)
    beyond = 0
    print(f"\n{'workload':<22} {'metric':<12} {'first':>11} {'second':>11} {'diff':>7} {'bound':>6}  IQR(wall)")
    for name in first:
        spread = first[name]["quartiles"]["wall_s"]
        for metric in declared:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            diff = abs(b - a) / a
            over = diff > metric["bound"]
            beyond += over
            print(
                f"{name:<22} {metric['name']:<12} {a:>11.5g} {b:>11.5g} {diff:>6.1%}"
                f" {metric['bound']:>6.2f}  {(spread[2] - spread[0]) / spread[1]:.1%}"
                + ("  <-- beyond the bound" if over else "")
            )
    print(f"\n{beyond} metric(s) beyond their bound; failed_ops {failed_first + failed_second}")
    return 0 if beyond == 0 and failed_first + failed_second == 0 else 1


def write_golden(args: argparse.Namespace) -> int:
    """Regenerate ``perf/golden/seed0.json`` — at the benchmark's parent commit only."""
    import verify
    import workloads

    golden: "dict[str, Any]" = {}
    for quick in (True, False):
        args.quick = quick
        for name in workloads.WORKLOADS:
            detail = spawn_run(args, name, 0)
            if detail["failed"]:
                raise SystemExit(f"perf: {name} fails its oracles; no golden written")
            section = golden.setdefault(verify.golden_section(name), {})
            for key, digest in detail["digests"].items():
                if key != "memo" and section.setdefault(key, digest) != digest:
                    raise SystemExit(f"perf: {name} disagrees with another workload on {key}")
    verify.GOLDEN.parent.mkdir(exist_ok=True)
    verify.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {verify.GOLDEN}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, print one JSON line")
    parser.add_argument("--seed", type=int, default=0, help="reaches only the input generators")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics instead")
    parser.add_argument("--traced", action="store_true", help="also print each workload's layer table")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--calibrate", action="store_true", help="two sets back to back, compared")
    parser.add_argument("--golden", help="golden file to check against (default perf/golden/seed0.json)")
    parser.add_argument("--write-golden", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--in-session", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit("perf: src/repro is not in this checkout; nothing to measure")
    if args.workload and not args.in_session:
        # The run proper is a child in a session of its own, so that nothing
        # it starts (pool workers, resource trackers) is alive when this returns.
        import session

        own = sys.argv[1:] if argv is None else argv
        return session.supervised([sys.executable, str(PERF / "run.py"), *own, "--in-session"])
    sys.path.insert(0, str(SRC))
    if args.workload:
        return run_one(args)
    if args.write_golden:
        args.seed = 0
        return write_golden(args)
    if args.calibrate:
        return calibrate(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
