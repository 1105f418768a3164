#!/usr/bin/env python
"""Engine performance trajectory: serial vs parallel vs memoized replay.

Runs the Table I campaign scenario (default 200 chains x 5 strategies,
budget ``(10B, 10L)``) through the three engine execution tiers and writes
``BENCH_engine.json`` with wall times, per-strategy solve latencies, and a
bitwise engine-vs-serial parity verdict (non-zero exit on mismatch, so CI
can gate on it).

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py [--chains 200]
        [--jobs 8] [--out BENCH_engine.json]

Notes on reading the numbers: the parallel speedup is bounded by the cores
the process may actually use — reported as both ``cpu_count`` (machine
total) and ``cpu_affinity`` (scheduler mask; smaller under container CPU
limits) — while the memoized-replay tier and the engine-vs-scalar ratio
are hardware-independent.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.chain_stats import ChainProfile  # noqa: E402
from repro.core.registry import PAPER_ORDER, get_strategy  # noqa: E402
from repro.core.types import Resources  # noqa: E402
from repro.engine import CampaignEngine  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.obs.sketch import DEFAULT_ALPHA, SKETCH_VERSION  # noqa: E402
from repro.sim import SimConfig, bursty_trace, simulate  # noqa: E402
from repro.workloads.synthetic import (  # noqa: E402
    GeneratorConfig,
    chain_batch,
    ktype_chain_batch,
)

TABLE1_BUDGET = Resources(10, 10)
TABLE1_BUDGETS = (Resources(16, 4), Resources(10, 10), Resources(4, 16))
#: The k-type overhead scenario: a 3-class budget and the strategies that
#: accept it (tracks what the k-type generalization costs on the hot path).
KTYPE_BUDGET = Resources.from_counts((4, 4, 2))
KTYPE_STRATEGIES = ("fertac", "2catac", "otac_b", "otac_l")
#: Strategies whose campaign path is not a plain map of the one-instance
#: solver: the engine is timed against, and held bitwise to, that map.
#: HeRAD's ratio is one DP at two batch sizes, B=chains vs B=1 (gated);
#: 2CATAC's is memoised vs plain walk and is kept for the bitwise
#: ``mismatch`` flag only.
KERNEL_STRATEGIES = ("herad", "2catac")


def _cpu_affinity() -> "int | None":
    """Cores the scheduler lets this process use (``None`` if unknowable)."""
    getter = getattr(os, "sched_getaffinity", None)
    return len(getter(0)) if getter is not None else None


def _time(fn, repeats: int = 1) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _git_sha() -> str:
    """Current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _arrays_match(a, b) -> bool:
    return set(a) == set(b) and all(
        np.array_equal(a[n].periods, b[n].periods)
        and np.array_equal(a[n].big_used, b[n].big_used)
        and np.array_equal(a[n].little_used, b[n].little_used)
        for n in a
    )


def _matches_outcomes(record, outcomes) -> bool:
    """Engine columns vs the scalar solvers' outcomes, bit for bit."""
    usages = [outcome.solution.core_usage(2).counts for outcome in outcomes]
    return (
        np.array_equal(record.periods, [outcome.period for outcome in outcomes])
        and np.array_equal(record.big_used, [usage[0] for usage in usages])
        and np.array_equal(record.little_used, [usage[1] for usage in usages])
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=200)
    parser.add_argument("--tasks", type=int, default=20)
    parser.add_argument("--stateless-ratio", type=float, default=0.5)
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel tier worker count (default: all cores)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency-chains", type=int, default=20,
                        help="chains averaged per strategy latency point")
    parser.add_argument("--sim-events", type=int, default=2000,
                        help="events in the online-simulation scenario")
    parser.add_argument("--scaling-jobs", type=str, default="2,4,8",
                        help="comma-separated job counts of the jobs_scaling "
                        "scenario (empty string disables it)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_engine.json")
    args = parser.parse_args(argv)

    jobs = args.jobs or os.cpu_count() or 1
    config = GeneratorConfig(
        num_tasks=args.tasks, stateless_ratio=args.stateless_ratio
    )
    chains = list(chain_batch(args.chains, config, seed=args.seed))
    print(
        f"campaign: {len(chains)} chains x {len(PAPER_ORDER)} strategies, "
        f"budget ({TABLE1_BUDGET.big}B,{TABLE1_BUDGET.little}L), "
        f"jobs={jobs}, cpu_count={os.cpu_count()}, "
        f"cpu_affinity={_cpu_affinity()}"
    )

    # Tier 1: serial, no cache.
    serial_engine = CampaignEngine(jobs=1, memo=False)
    serial_s, serial_arrays = _time(
        lambda: serial_engine.solve_instances(chains, TABLE1_BUDGET, PAPER_ORDER)
    )
    print(f"  serial          {serial_s:8.2f}s")

    # Tier 2: process pool, no cache.
    with CampaignEngine(jobs=jobs, memo=False) as pool_engine:
        parallel_s, parallel_arrays = _time(
            lambda: pool_engine.solve_instances(
                chains, TABLE1_BUDGET, PAPER_ORDER, jobs=jobs
            )
        )
    print(f"  process (j={jobs:2d})  {parallel_s:8.2f}s")

    # Tier 3: memoized replay (warm cache — the figure drivers' case).
    memo_engine = CampaignEngine(jobs=1, memo=True)
    memo_engine.solve_instances(chains, TABLE1_BUDGET, PAPER_ORDER)
    replay_s, replay_arrays = _time(
        lambda: memo_engine.solve_instances(chains, TABLE1_BUDGET, PAPER_ORDER),
        repeats=3,
    )
    print(f"  memo replay     {replay_s:8.2f}s")

    mismatch = not (
        _arrays_match(serial_arrays, parallel_arrays)
        and _arrays_match(serial_arrays, replay_arrays)
    )

    # Per-strategy single-instance solve latency (microseconds).
    latency_profiles = [
        ChainProfile(c)
        for c in chain_batch(args.latency_chains, config, seed=args.seed + 1)
    ]
    latencies_us = {}
    for budget in TABLE1_BUDGETS:
        key = f"({budget.big}B,{budget.little}L)"
        latencies_us[key] = {
            name: round(
                serial_engine.measure_latency(name, latency_profiles, budget)
                * 1e6,
                1,
            )
            for name in PAPER_ORDER
        }

    # k-type solve scenario: per-strategy latency on a 3-class budget, so
    # the engine trajectory also tracks the k-type generalization overhead.
    ktype_config = GeneratorConfig(num_tasks=12, stateless_ratio=0.5)
    ktype_profiles = [
        ChainProfile(c)
        for c in ktype_chain_batch(
            args.latency_chains, ktype_config, ktype=3, seed=args.seed + 2
        )
    ]
    ktype_key = "(" + ",".join(str(c) for c in KTYPE_BUDGET.counts) + ")"
    ktype_latencies_us = {
        name: round(
            serial_engine.measure_latency(name, ktype_profiles, KTYPE_BUDGET)
            * 1e6,
            1,
        )
        for name in KTYPE_STRATEGIES
    }
    print(f"  k-type latency  budget {ktype_key}: {ktype_latencies_us}")

    # Engine-vs-scalar scenario: the campaign through the engine
    # (``solve_batch`` per strategy group) vs the one-instance solvers
    # mapped over the same chains.  Results must stay bitwise identical —
    # the speedup is the entire point.  Per-solve latency quantiles are
    # those of the timed one-instance calls.
    versus_wall_s: dict[str, dict[str, float]] = {}
    versus_speedup: dict[str, float] = {}
    versus_latency_us: dict[str, dict[str, float]] = {}
    versus_mismatch = False
    for name in KERNEL_STRATEGIES:
        solver = get_strategy(name)
        latencies = MetricsRegistry()

        def scalar_map():
            outcomes = []
            for chain in chains:
                start = time.perf_counter()
                outcomes.append(solver(ChainProfile(chain), TABLE1_BUDGET))
                latencies.observe(name, time.perf_counter() - start)
            return outcomes

        scalar_s, outcomes = _time(scalar_map, repeats=2)
        engine_s, arrays = _time(
            functools.partial(
                serial_engine.solve_instances, chains, TABLE1_BUDGET, (name,)
            ),
            repeats=3,
        )
        versus_wall_s[name] = {
            "scalar": round(scalar_s, 3),
            "engine": round(engine_s, 3),
        }
        versus_speedup[name] = round(scalar_s / engine_s, 2)
        versus_mismatch |= not _matches_outcomes(arrays[name], outcomes)
        sketch = latencies.sketch(name)
        versus_latency_us[name] = {
            "p50": round(sketch.p50 * 1e6, 1),
            "p90": round(sketch.p90 * 1e6, 1),
            "p99": round(sketch.p99 * 1e6, 1),
        }
        print(
            f"  {name:12s} scalar {scalar_s:6.2f}s  "
            f"engine {engine_s:6.2f}s  x{scalar_s / engine_s:.2f}  "
            f"(scalar p50 {versus_latency_us[name]['p50']:.0f}us "
            f"p99 {versus_latency_us[name]['p99']:.0f}us)"
        )
    mismatch |= versus_mismatch

    # Jobs-scaling scenario: the process tier (whole-batch cost-adaptive
    # units, pickled result rows, first-use pool spawn included) vs serial,
    # at several worker counts.  Speedups are same-run ratios; the gate only
    # judges them when the candidate machine actually has the cores
    # (tolerances carry ``requires_cores``), so a pinned single-core CI
    # runner skips them explicitly instead of passing vacuously.
    scaling_levels = [
        int(level)
        for level in args.scaling_jobs.split(",")
        if level.strip()
    ]
    jobs_scaling: "dict[str, object]" = {}
    scaling_mismatch = False
    if scaling_levels:
        jobs_scaling["jobs"] = scaling_levels
        jobs_scaling["serial_wall_s"] = round(serial_s, 3)
        for level in scaling_levels:
            with CampaignEngine(jobs=level, memo=False) as engine:
                wall_s, arrays = _time(
                    functools.partial(
                        engine.solve_instances, chains, TABLE1_BUDGET, PAPER_ORDER
                    )
                )
            scaling_mismatch |= not _arrays_match(serial_arrays, arrays)
            jobs_scaling[f"jobs{level}"] = {
                "wall_s": round(wall_s, 3),
                "speedup": round(serial_s / wall_s, 2),
            }
            print(f"  scaling j={level:2d} {wall_s:8.2f}s  x{serial_s / wall_s:.2f}")
        jobs_scaling["mismatch"] = scaling_mismatch
        mismatch |= scaling_mismatch

    # Online-simulation scenario: steady-state throughput and rescheduling
    # latency percentiles of the incremental scheduler on a bursty trace
    # (repro.sim).  Records and counters must be run-to-run identical; the
    # wall-clock latencies are what this scenario is here to track.
    sim_trace = bursty_trace(args.sim_events, seed=args.seed)
    sim_s, sim_result = _time(
        functools.partial(simulate, sim_trace, SimConfig())
    )
    sim_repeat = simulate(sim_trace, SimConfig())
    sim_mismatch = (
        sim_result.records != sim_repeat.records
        or sim_result.metrics.counters != sim_repeat.metrics.counters
        or sim_result.scheduleless_intervals > 0
        or sim_result.overcommit_events > 0
    )
    # Percentiles come from the same obs-layer sketch the CLI reports, so
    # this file and `repro simulate --metrics` can never disagree.
    resched_sketch = sim_result.resched_sketch()
    sim_p50_ms = resched_sketch.p50 * 1e3
    sim_p90_ms = resched_sketch.p90 * 1e3
    sim_p99_ms = resched_sketch.p99 * 1e3
    mismatch |= sim_mismatch
    print(
        f"  sim ({sim_result.num_events} events) {sim_s:6.2f}s  "
        f"resched p50 {sim_p50_ms:.2f}ms  p99 {sim_p99_ms:.2f}ms  "
        f"throughput {sim_result.aggregate_throughput():.4g}"
    )

    report = {
        "benchmark": "campaign engine trajectory",
        # Bucketing parameters of every percentile in this file, for
        # forward compatibility when comparing reports across versions.
        "sketch": {"alpha": DEFAULT_ALPHA, "version": SKETCH_VERSION},
        "scenario": {
            "chains": len(chains),
            "num_tasks": args.tasks,
            "stateless_ratio": args.stateless_ratio,
            "strategies": list(PAPER_ORDER),
            "budget": [TABLE1_BUDGET.big, TABLE1_BUDGET.little],
            "seed": args.seed,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpu_affinity": _cpu_affinity(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": _git_sha(),
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "campaign_wall_s": {
            "serial": round(serial_s, 3),
            f"process_jobs{jobs}": round(parallel_s, 3),
            "memo_replay": round(replay_s, 3),
        },
        "speedup_vs_serial": {
            f"process_jobs{jobs}": round(serial_s / parallel_s, 2),
            "memo_replay": round(serial_s / replay_s, 2),
        },
        "memo": {
            "hit_rate": round(memo_engine.memo.stats.hit_rate, 4),
            "entries": memo_engine.memo.stats.size,
        },
        "strategy_latency_us": latencies_us,
        "ktype_scenario": {
            "budget": list(KTYPE_BUDGET.counts),
            "num_tasks": 12,
            "chains": args.latency_chains,
            "strategy_latency_us": ktype_latencies_us,
        },
        "engine_vs_scalar": {
            "chains": len(chains),
            "num_tasks": args.tasks,
            "budget": [TABLE1_BUDGET.big, TABLE1_BUDGET.little],
            "wall_s": versus_wall_s,
            "speedup": versus_speedup,
            "solve_latency_us": versus_latency_us,
            "mismatch": versus_mismatch,
        },
        "jobs_scaling": jobs_scaling,
        "sim_scenario": {
            "kind": "bursty",
            "events": sim_result.num_events,
            "seed": args.seed,
            "wall_s": round(sim_s, 3),
            "events_per_s": round(sim_result.num_events / sim_s, 1),
            "steady_state_throughput": round(
                sim_result.aggregate_throughput(), 6
            ),
            "resched_latency_ms": {
                "p50": round(sim_p50_ms, 3),
                "p90": round(sim_p90_ms, 3),
                "p99": round(sim_p99_ms, 3),
                "max": round(resched_sketch.maximum * 1e3, 3),
            },
            "ladder": {
                action: int(sim_result.counter(f"sim.resched.{action}"))
                for action in ("keep", "warm", "full", "reuse", "shed")
            },
            "mismatch": sim_mismatch,
        },
        "engine_vs_serial_mismatch": mismatch,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if mismatch:
        print("ERROR: engine-vs-serial mismatch", file=sys.stderr)
        return 1
    print(
        f"speedups vs serial: process x{serial_s / parallel_s:.2f}, "
        f"memo replay x{serial_s / replay_s:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
