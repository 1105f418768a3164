"""Campaign-engine bench — executor tiers, memo replay, one-instance HeRAD.

Times the three engine execution tiers (serial, process-pool, memoized
replay) over a shared campaign and asserts, on every run, that the tiers
produce bitwise-identical arrays — CI fails on any engine-vs-serial
mismatch.  Also times the one-instance HeRAD solve (the batch DP on a
one-row batch) from a tiny plane to a large one.

Run ``python scripts/bench_trajectory.py`` for the standalone trajectory
report (``BENCH_engine.json``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.herad import herad
from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import CampaignEngine

from conftest import SCALE, paper_profiles

_RESOURCES = Resources(10, 10)


@pytest.fixture(scope="module")
def engine_chains():
    return [p.chain for p in paper_profiles(10 * SCALE, 0.5, seed=7)]


def _arrays_equal(a, b) -> bool:
    return set(a) == set(b) and all(
        np.array_equal(a[n].periods, b[n].periods)
        and np.array_equal(a[n].big_used, b[n].big_used)
        and np.array_equal(a[n].little_used, b[n].little_used)
        for n in a
    )


def test_campaign_serial(benchmark, engine_chains):
    engine = CampaignEngine(jobs=1, memo=False)

    def run():
        return engine.solve_instances(engine_chains, _RESOURCES, PAPER_ORDER)

    arrays = benchmark(run)
    assert set(arrays) == set(PAPER_ORDER)
    benchmark.extra_info["chains"] = len(engine_chains)


def test_campaign_process_pool_matches_serial(benchmark, engine_chains):
    """The engine-vs-serial mismatch gate: bitwise parity is asserted."""
    serial = CampaignEngine(jobs=1, memo=False).solve_instances(
        engine_chains, _RESOURCES, PAPER_ORDER
    )
    engine = CampaignEngine(jobs=2, memo=False)

    def run():
        return engine.solve_instances(engine_chains, _RESOURCES, PAPER_ORDER)

    arrays = benchmark.pedantic(run, rounds=1, iterations=1)
    assert _arrays_equal(serial, arrays), "engine-vs-serial mismatch"


def test_campaign_memo_replay(benchmark, engine_chains):
    """Replay of a warmed cache — the figure drivers' common case."""
    engine = CampaignEngine(jobs=1, memo=True)
    cold = engine.solve_instances(engine_chains, _RESOURCES, PAPER_ORDER)

    def run():
        return engine.solve_instances(engine_chains, _RESOURCES, PAPER_ORDER)

    warm = benchmark(run)
    assert _arrays_equal(cold, warm), "memo replay mismatch"
    assert engine.memo.stats.hit_rate > 0.9
    benchmark.extra_info["hit_rate"] = round(engine.memo.stats.hit_rate, 4)


@pytest.mark.parametrize("budget", [(4, 4), (10, 10), (40, 40)])
def test_herad_sweep_kernel(benchmark, engine_chains, budget):
    """Single-instance HeRAD solve across plane sizes."""
    resources = Resources(*budget)
    profile = paper_profiles(1, 0.5, seed=13)[0]

    outcome = benchmark(lambda: herad(profile, resources))
    assert outcome.feasible
