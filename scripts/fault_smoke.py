#!/usr/bin/env python
"""Fault-injection smoke: crash a worker mid-campaign, demand bitwise parity.

Runs a Table I-style campaign twice:

1. a fault-free serial baseline;
2. a process-tier run (``--jobs`` workers) with resilience enabled and a
   deterministic fault plan that hard-kills (``os._exit``) a worker process
   the first time it touches a chosen chain — the closest reproducible
   stand-in for an OOM-killed or segfaulted worker.

The recovered arrays must be **bitwise identical** to the baseline and
nothing may be quarantined; any mismatch exits non-zero (CI ``fault-smoke``
job). This is the end-to-end proof that crash recovery cannot change
reproduced numbers.

A third phase drives the online simulator through a core-failure storm
(three overlapping failures on a populated platform, certification on) and
asserts the availability invariant: every event leaves every chain either
feasibly scheduled or explicitly shed (zero scheduleless intervals), no
allocation ever exceeds the cores that are up (zero overcommit), and the
platform is fully recovered by the end of the trace.

Usage::

    PYTHONPATH=src python scripts/fault_smoke.py [--chains 40] [--jobs 4]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

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
from repro.sim import SimConfig, failure_storm_trace, simulate
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def storm_failures(seed: int) -> int:
    """Run the certified failure-storm simulation; returns failed checks."""
    trace = failure_storm_trace(seed=seed)
    result = simulate(trace, SimConfig(certify=True))
    overlap = max(
        sum(
            1
            for other in result.down_intervals
            if other.start <= interval.start < other.end
        )
        for interval in result.down_intervals
    )
    actions = {
        action: int(result.counter(f"sim.resched.{action}"))
        for action in ("keep", "warm", "full", "reuse", "shed")
    }
    print(
        f"[storm] {result.num_events} events, peak {overlap} cores down, "
        f"ladder {actions}"
    )
    failures = 0
    if overlap < 3:
        print(f"FAIL: storm peaked at {overlap} overlapping failures, need >= 3")
        failures += 1
    if result.scheduleless_intervals:
        print(
            f"FAIL: {result.scheduleless_intervals} scheduleless interval(s) "
            "— a chain was neither scheduled nor explicitly shed"
        )
        failures += 1
    if result.overcommit_events:
        print(
            f"FAIL: {result.overcommit_events} overcommit event(s) "
            "— allocations exceeded the cores currently up"
        )
        failures += 1
    if result.records[-1].availability != 1.0:
        print("FAIL: the platform did not fully recover by the end of the storm")
        failures += 1
    for action in ("warm", "full", "shed"):
        if actions[action] < 1:
            print(f"FAIL: ladder rung {action!r} was never exercised")
            failures += 1
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=40)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = GeneratorConfig(num_tasks=12, stateless_ratio=0.5)
    chains = list(chain_batch(args.chains, config, seed=args.seed))
    resources = Resources(4, 4)
    strategies = tuple(PAPER_ORDER)

    print(f"[baseline] serial, {args.chains} chains, {len(strategies)} strategies")
    baseline = CampaignEngine(jobs=1, memo=False).solve_instances(
        chains, resources, strategies
    )

    with tempfile.TemporaryDirectory(prefix="fault-smoke-") as state_dir:
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="crash",
                    fingerprint=ChainProfile(chains[args.chains // 2]).fingerprint,
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=state_dir,
        )
        print(f"[faulted] process tier, jobs={args.jobs}, one worker crash armed")
        engine = CampaignEngine(
            jobs=args.jobs,
            memo=False,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
            ),
            faults=plan,
        )
        recovered = engine.solve_instances(chains, resources, strategies)

    report = engine.last_report
    assert report is not None
    print(
        f"[recovery] retries={report.retries} timeouts={report.timeouts} "
        f"degradations={report.degradations} quarantined={report.quarantined}"
    )
    failures = 0
    if report.retries < 1:
        print("FAIL: the injected crash never fired (no retry recorded)")
        failures += 1
    if report.quarantined:
        print("FAIL: crash recovery quarantined instances instead of recovering")
        failures += 1
    for name in strategies:
        for column in ("periods", "big_used", "little_used"):
            a = getattr(baseline[name], column)
            b = getattr(recovered[name], column)
            if not np.array_equal(a, b):
                print(f"FAIL: {name}.{column} differs from fault-free baseline")
                failures += 1
    failures += storm_failures(args.seed)
    if failures:
        print(f"fault smoke FAILED ({failures} check(s))")
        return 1
    print(
        "fault smoke OK: recovered arrays are bitwise identical and the "
        "storm held the availability invariant"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
