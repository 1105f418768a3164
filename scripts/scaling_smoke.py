#!/usr/bin/env python
"""Scaling smoke: the process tier — parity, leaks, speedup.

Four phases, any failure exits non-zero (CI ``scaling-smoke`` job):

1. **Bitwise parity** — a Table I-style campaign solved serially and at
   ``--jobs``; the arrays must be identical to the bit.  This runs
   everywhere, including pinned single-core runners: parity is
   hardware-independent.
2. **Leak check** — after the campaigns, a fault-injected worker crash
   included, no child process is left, ``/dev/shm`` holds no new ``psm_*``
   segment, and ``multiprocessing``'s resource tracker was never started
   (results travel as pickled rows; nothing is allocated to track).
3. **Speedup** — only when the runner reports at least 2 usable cores
   (``os.sched_getaffinity``): the process tier must reach
   ``--min-efficiency`` x jobs x serial throughput.  On fewer cores the
   phase is skipped loudly — a single-core speedup number is scheduler
   noise, not evidence.
4. **Small campaigns** — same core gate: the nine Table I scenarios at
   ``--small-chains`` chains each, back to back on one engine, must not be
   slower at ``--jobs`` than serially (best of three runs each).
   This is the sweep shape the paper's evaluation has and the one a pool
   per campaign or a shredded plan loses on.

Usage::

    PYTHONPATH=src python scripts/scaling_smoke.py [--chains 40] [--jobs 4]
        [--min-efficiency 0.8] [--small-chains 10]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.core.chain_stats import ChainProfile
from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
)
from repro.experiments import table1
from repro.workloads.synthetic import GeneratorConfig, chain_batch

BUDGET = Resources(10, 10)
_FAST = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _usable_cores() -> int:
    getter = getattr(os, "sched_getaffinity", None)
    return len(getter(0)) if getter is not None else (os.cpu_count() or 1)


def _arrays_match(a, b) -> bool:
    return set(a) == set(b) and all(
        np.array_equal(a[n].periods, b[n].periods)
        and np.array_equal(a[n].big_used, b[n].big_used)
        and np.array_equal(a[n].little_used, b[n].little_used)
        for n in a
    )


def _shm_segments() -> set:
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


def _small_table_seconds(jobs: int, chains: int, seed: int) -> float:
    """Wall of the nine Table I campaigns on one engine, pool lifetime included."""
    start = time.perf_counter()
    with CampaignEngine(jobs=jobs, memo=False) as engine:
        table1.run(num_chains=chains, seed=seed, jobs=jobs, engine=engine)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=40)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--min-efficiency", type=float, default=0.8,
                        help="required speedup as a fraction of --jobs "
                        "(only asserted with >= 2 usable cores)")
    parser.add_argument("--small-chains", type=int, default=10,
                        help="chains per scenario of the small-campaign phase")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = GeneratorConfig(num_tasks=20, stateless_ratio=0.5)
    chains = list(chain_batch(args.chains, config, seed=args.seed))
    cores = _usable_cores()
    failures = 0
    print(
        f"scaling smoke: {len(chains)} chains x {len(PAPER_ORDER)} "
        f"strategies, jobs={args.jobs}, usable cores={cores}"
    )

    segments = _shm_segments()
    serial_engine = CampaignEngine(jobs=1, memo=False)
    start = time.perf_counter()
    serial = serial_engine.solve_instances(chains, BUDGET, PAPER_ORDER)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    with CampaignEngine(jobs=args.jobs, memo=False) as process_engine:
        parallel = process_engine.solve_instances(chains, BUDGET, PAPER_ORDER)
    parallel_s = time.perf_counter() - start

    if _arrays_match(serial, parallel):
        print(f"  parity: serial vs jobs={args.jobs} bitwise identical")
    else:
        print("  parity: MISMATCH across tiers", file=sys.stderr)
        failures += 1

    # Fault-injected worker crash: recovery must not leave anything behind.
    with tempfile.TemporaryDirectory() as state_dir:
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="crash",
                    fingerprint=ChainProfile(chains[3]).fingerprint,
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=state_dir,
        )
        with CampaignEngine(
            jobs=args.jobs, memo=False,
            resilience=ResilienceConfig(retry=_FAST), faults=plan,
        ) as crash_engine:
            crashed = crash_engine.solve_instances(chains, BUDGET, ("fertac",))
    reference = {"fertac": serial["fertac"]}
    if _arrays_match(reference, crashed):
        print("  crash recovery: bitwise identical")
    else:
        print("  crash recovery: MISMATCH", file=sys.stderr)
        failures += 1

    leftovers = {
        "child process(es)": multiprocessing.active_children(),
        "new /dev/shm segment(s)": sorted(_shm_segments() - segments),
        "resource tracker pid": resource_tracker._resource_tracker._pid,
    }
    if any(leftovers.values()):
        print(f"  leak check: left behind {leftovers}", file=sys.stderr)
        failures += 1
    else:
        print("  leak check: no child, no psm_* segment, no resource tracker")

    if cores >= 2:
        speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        wanted = args.min_efficiency * min(args.jobs, cores)
        verdict = "ok" if speedup >= wanted else "FAIL"
        print(
            f"  speedup: x{speedup:.2f} at jobs={args.jobs} on {cores} "
            f"cores (need >= x{wanted:.2f}) {verdict}"
        )
        if speedup < wanted:
            failures += 1
        serial_small, parallel_small = (
            min(
                _small_table_seconds(jobs, args.small_chains, args.seed)
                for _ in range(3)
            )
            for jobs in (1, args.jobs)
        )
        verdict = "ok" if parallel_small <= serial_small else "FAIL"
        print(
            f"  small campaigns: 9 x {args.small_chains} chains "
            f"{serial_small:.2f} s serial, {parallel_small:.2f} s at "
            f"jobs={args.jobs} {verdict}"
        )
        if parallel_small > serial_small:
            failures += 1
    else:
        print(
            f"  speedup: skipped ({cores} usable core(s); scaling "
            "assertions need >= 2)"
        )

    if failures:
        print(f"scaling smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print("scaling smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
