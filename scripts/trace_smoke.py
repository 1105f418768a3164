#!/usr/bin/env python
"""Observability smoke: trace a campaign, validate the trace, bound overhead.

Runs a small Table I-style campaign three ways:

1. untraced process-tier baseline (the shipped default: obs fully off);
2. the identical campaign with tracing + metrics enabled, written out as
   Chrome trace-event JSON and re-validated from disk
   (:func:`repro.obs.validate_chrome_trace`: matched B/E pairs, per-thread
   timestamp monotonicity, required fields), plus a collapsed-stack
   flamegraph re-validated from disk (:func:`repro.obs.validate_flamegraph`:
   line grammar, stack roots match span roots, >= 95 % of traced wall-clock
   attributed to leaf frames);
3. a micro-benchmark of the disabled hook path (``counter_add`` with no
   active context), scaled by the number of hook events the campaign
   actually fired, to bound the no-op overhead below 2 % of the untraced
   wall time.

The traced arrays must be **bitwise identical** to the untraced baseline,
the root ``campaign`` span must cover >= 95 % of the measured wall time,
and any failed check exits non-zero (CI ``trace-smoke`` job).

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py [--chains 24] [--jobs 2]
        [--out trace_smoke.json] [--flamegraph trace_smoke.folded]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import CampaignEngine
from repro.obs import (
    Observability,
    ObsConfig,
    counter_add,
    monotonic,
    validate_chrome_trace,
    validate_flamegraph,
    write_chrome_trace,
    write_flamegraph,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch

#: Hook-call budget for the disabled-path micro-benchmark.
_NULL_CALLS = 200_000


def _null_hook_cost_s() -> float:
    """Per-call cost of ``counter_add`` with observability disabled."""
    start = monotonic()
    for _ in range(_NULL_CALLS):
        counter_add("smoke.null")
    return (monotonic() - start) / _NULL_CALLS


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("trace_smoke.json"))
    parser.add_argument(
        "--flamegraph", type=Path, default=Path("trace_smoke.folded")
    )
    args = parser.parse_args(argv)

    config = GeneratorConfig(num_tasks=12, stateless_ratio=0.5)
    chains = list(chain_batch(args.chains, config, seed=args.seed))
    resources = Resources(3, 3)
    strategies = tuple(PAPER_ORDER)

    print(
        f"[untraced] process tier, jobs={args.jobs}, {args.chains} chains x "
        f"{len(strategies)} strategies"
    )
    plain = CampaignEngine(jobs=args.jobs, memo=False)
    start = monotonic()
    baseline = plain.solve_instances(chains, resources, strategies)
    untraced_s = monotonic() - start
    print(f"  wall {untraced_s:.3f}s")

    obs = Observability(ObsConfig(trace=True, metrics=True))
    traced_engine = CampaignEngine(
        jobs=args.jobs, memo=False, obs=obs
    )
    print("[traced]   same campaign, spans + metrics on")
    start = monotonic()
    traced = traced_engine.solve_instances(chains, resources, strategies)
    traced_s = monotonic() - start
    print(f"  wall {traced_s:.3f}s")

    spans = obs.spans()
    snapshot = obs.metrics.snapshot()
    write_chrome_trace(args.out, spans, snapshot)
    print(f"  wrote {args.out} ({len(spans)} spans)")

    failures = 0

    # 1. The exported document must be structurally valid Chrome trace JSON.
    document = json.loads(args.out.read_text(encoding="utf-8"))
    errors = validate_chrome_trace(document)
    for error in errors:
        print(f"FAIL: trace: {error}")
        failures += 1

    # 1b. The collapsed-stack flamegraph must survive its structural oracle
    # when re-read from disk: line grammar, stack roots drawn from actual
    # root spans, and >= 95% of traced wall-clock attributed to leaf frames.
    stacks = write_flamegraph(args.flamegraph, spans)
    print(f"  wrote {args.flamegraph} ({stacks} stacks)")
    flame_lines = args.flamegraph.read_text(encoding="utf-8").splitlines()
    for error in validate_flamegraph(flame_lines, spans):
        print(f"FAIL: flamegraph: {error}")
        failures += 1

    # 2. The expected phases must be present.
    names = {span.name for span in spans}
    for expected in ("campaign", "unit", "solve_batch"):
        if expected not in names:
            print(f"FAIL: no {expected!r} span in the trace")
            failures += 1
    counters = dict(snapshot.counters)
    expected_solves = len(chains) * len(strategies)
    if counters.get("solve.count") != expected_solves:
        print(
            f"FAIL: solve.count={counters.get('solve.count')}, "
            f"expected {expected_solves}"
        )
        failures += 1

    # 3. The root campaign span must cover (almost) the whole wall time.
    roots = [span for span in spans if span.name == "campaign"]
    if len(roots) != 1:
        print(f"FAIL: expected one campaign root span, got {len(roots)}")
        failures += 1
    else:
        coverage = roots[0].duration / traced_s
        print(f"  root span covers {coverage:.1%} of the traced wall time")
        if coverage < 0.95:
            print(f"FAIL: root span coverage {coverage:.1%} < 95%")
            failures += 1

    # 4. Tracing must not change a single bit of the results.
    for name in strategies:
        for column in ("periods", "big_used", "little_used"):
            a = getattr(baseline[name], column)
            b = getattr(traced[name], column)
            if not np.array_equal(a, b):
                print(f"FAIL: {name}.{column} differs between traced/untraced")
                failures += 1

    # 5. The disabled hook path must be noise: per-call null-hook cost times
    # the number of hook calls this campaign made, bounded at 2% of the
    # untraced wall.  (A direct wall-vs-wall comparison would drown in
    # scheduler jitter at this campaign size; the model is stable.)  Calls,
    # not counter values: a bisection makes one
    # ``packing.compute_stage_calls`` flush per probe — its iterations plus
    # at most two fallback probes — and two calls at its end; a HeRAD solve
    # makes two.
    per_call = _null_hook_cost_s()
    hook_events = int(
        counters.get("binary_search.iterations", 0.0)
        + 4 * counters.get("binary_search.calls", 0.0)
        + 2 * counters.get("herad.calls", 0.0)
    )
    overhead = per_call * hook_events
    fraction = overhead / untraced_s if untraced_s > 0 else 0.0
    print(
        f"  no-op hook overhead: {hook_events} events x {per_call * 1e9:.0f}ns "
        f"= {overhead * 1e3:.2f}ms ({fraction:.2%} of untraced wall)"
    )
    if fraction >= 0.02:
        print(f"FAIL: no-op hook overhead {fraction:.2%} >= 2%")
        failures += 1

    if failures:
        print(f"trace smoke FAILED ({failures} check(s))")
        return 1
    print("trace smoke OK: valid trace, bitwise parity, no-op overhead bounded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
