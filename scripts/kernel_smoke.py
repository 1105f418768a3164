#!/usr/bin/env python
"""Batch solve-path smoke: oracle replay through the engine + bench.

Two gates, both exiting non-zero on violation (CI ``kernel-smoke`` job):

1. **Oracle replay** — every cell of the 1260-cell pre-refactor fixture
   (``tests/data/k2_oracle.json``: 30 chains x 6 budgets x 7 strategies)
   is solved by a default ``CampaignEngine`` (``solve_batch`` per strategy
   group, exactly what ``repro table1`` runs) with certification on, and
   compared bitwise — period bits and per-type core usage — against the
   stored pre-refactor outputs.
2. **Bench smoke** — per strategy with a ``batch_func``, the standard
   campaign through the engine is timed against the one-instance
   ``get_strategy`` solver mapped over the same chains; the engine must
   match it bitwise and must not be slower.  HeRAD's leg is one DP at two
   batch sizes — whole sub-batches against one-row batches (~5-6x at 60
   chains); 2CATAC's is the memoised walk against the paper's un-memoised
   one (x1.85 at 60 chains), so equality means a regression.

Usage::

    PYTHONPATH=src python scripts/kernel_smoke.py [--chains 60]
        [--num-tasks 20] [--jobs 1]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.chain_stats import ChainProfile  # noqa: E402
from repro.core.registry import get_strategy  # noqa: E402
from repro.core.types import Resources  # noqa: E402
from repro.engine import CampaignEngine  # noqa: E402
from repro.workloads import generators as g  # noqa: E402
from repro.workloads.synthetic import GeneratorConfig, chain_batch  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "data" / "k2_oracle.json"
#: Strategies whose campaigns do not solve on a plain map of the
#: one-instance solver (batched HeRAD, memoised 2CATAC): this smoke's
#: subjects.
KERNEL_STRATEGIES = ("herad", "2catac")


def _oracle_chains():
    """The fixture's chain population (same recipe as tests/core)."""
    chains = []
    for sr in (0.2, 0.5, 0.8):
        cfg = GeneratorConfig(num_tasks=20, stateless_ratio=sr)
        chains.extend(chain_batch(8, cfg, seed=int(sr * 10)))
    chains += [
        g.fully_replicable_chain(12),
        g.fully_sequential_chain(12),
        g.alternating_chain(15),
        g.heavy_tail_chain(10),
        g.inverted_speed_chain(14),
        g.uniform_chain(1),
    ]
    return chains


def _engine(jobs: int) -> CampaignEngine:
    return CampaignEngine(jobs=jobs, memo=False)


def _replay_oracle(jobs: int) -> int:
    """Replay every fixture cell through the engine; count mismatches."""
    oracle = json.loads(FIXTURE.read_text())
    chains = _oracle_chains()
    strategies = sorted({row["strategy"] for row in oracle["rows"]})
    cells = {
        (row["chain"], tuple(row["budget"]), row["strategy"]): row
        for row in oracle["rows"]
    }
    engine = _engine(jobs)
    mismatches = 0
    for budget in oracle["meta"]["budgets"]:
        resources = Resources(*budget)
        arrays = engine.solve_instances(
            chains, resources, strategies, certify=True
        )
        for name in strategies:
            record = arrays[name]
            for index in range(len(chains)):
                row = cells[index, tuple(budget), name]
                got = (
                    float(record.periods[index]).hex(),
                    [int(record.big_used[index]), int(record.little_used[index])],
                )
                want = (row["period_hex"], row["usage"])
                if got != want:
                    mismatches += 1
                    if mismatches <= 3:
                        print(
                            f"FAIL cell (chain {index}, {budget}, {name}): "
                            f"want {want}, got {got}"
                        )
    total = len(cells)
    print(
        f"[kernel-smoke] oracle replay: {total - mismatches}/{total} cells "
        f"bitwise-identical through the engine (certified)"
    )
    return mismatches


def _bench(chains, resources, jobs: int) -> bool:
    """Time the engine against the scalar map; True when never slower."""
    ok = True
    engine = _engine(jobs)
    for name in KERNEL_STRATEGIES:
        solver = get_strategy(name)
        def scalar_map():
            return [
                solver(ChainProfile(chain), resources).period for chain in chains
            ]

        def through_engine():
            return engine.solve_instances(chains, resources, (name,))[name].periods

        timings = {}
        periods = {}
        for label, solve in (("scalar", scalar_map), ("engine", through_engine)):
            solve()  # warm-up: imports, allocator, worker spin-up
            start = time.perf_counter()
            periods[label] = solve()
            timings[label] = time.perf_counter() - start
        slower = timings["engine"] > timings["scalar"]
        parity = np.array_equal(periods["scalar"], periods["engine"])
        verdict = "OK" if not slower and parity else "FAIL"
        print(
            f"[kernel-smoke] bench {name:12s} scalar {timings['scalar']:6.3f}s  "
            f"engine {timings['engine']:6.3f}s  "
            f"x{timings['scalar'] / timings['engine']:.2f}  {verdict}"
        )
        if slower:
            print(f"FAIL {name}: engine slower than the scalar solver map")
            ok = False
        if not parity:
            print(f"FAIL {name}: engine diverged from the scalar solver")
            ok = False
    return ok


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=60,
                        help="timed campaign size")
    parser.add_argument("--num-tasks", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    mismatches = _replay_oracle(args.jobs)

    config = GeneratorConfig(num_tasks=args.num_tasks, stateless_ratio=0.5)
    chains = list(chain_batch(args.chains, config, seed=args.seed))
    bench_ok = _bench(chains, Resources(10, 10), args.jobs)

    if mismatches or not bench_ok:
        print(f"[kernel-smoke] FAILED ({mismatches} oracle mismatches)")
        return 1
    print("[kernel-smoke] OK: oracle bitwise, certified, engine not slower")
    return 0


if __name__ == "__main__":
    sys.exit(main())
