"""Tests for the no-replication DP baseline."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from oracle_bruteforce import _partitions
from tests.chain_shapes import (
    fully_replicable_chain,
    fully_sequential_chain,
)

from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidPlatformError
from repro.core.herad import herad
from repro.core.norep import norep_optimal, norep_period
from repro.core.registry import get_info
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources
from repro.workloads.synthetic import GeneratorConfig, random_chain


def exhaustive_norep(chain: TaskChain, resources: Resources) -> float:
    """Independent oracle: enumerate all 1-core-per-stage schedules."""
    profile = ChainProfile(chain)
    best = float("inf")
    for parts in _partitions(profile.n):
        if len(parts) > resources.total:
            continue
        for types in product(
            (CoreType.BIG, CoreType.LITTLE), repeat=len(parts)
        ):
            if sum(1 for t in types if t is CoreType.BIG) > resources.big:
                continue
            if sum(1 for t in types if t is CoreType.LITTLE) > resources.little:
                continue
            period = max(
                profile.interval_weight(s, e, t)
                for (s, e), t in zip(parts, types)
            )
            best = min(best, period)
    return best


class TestCorrectness:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            chain = random_chain(
                rng,
                GeneratorConfig(
                    num_tasks=n, stateless_ratio=float(rng.random())
                ),
            )
            big = int(rng.integers(0, 4))
            little = int(rng.integers(0, 4))
            if big + little == 0:
                big = 1
            resources = Resources(big, little)
            assert norep_period(chain, resources) == pytest.approx(
                exhaustive_norep(chain, resources)
            )

    def test_every_stage_has_one_core(self, simple_chain, balanced_resources):
        outcome = norep_optimal(simple_chain, balanced_resources)
        assert all(stage.cores == 1 for stage in outcome.solution)
        assert outcome.solution.is_valid(simple_chain, balanced_resources)

    def test_empty_budget_rejected(self, simple_chain):
        with pytest.raises(InvalidPlatformError):
            norep_optimal(simple_chain, Resources(0, 0))

    def test_single_core(self, simple_chain):
        assert norep_period(simple_chain, Resources(1, 0)) == 24.0
        assert norep_period(simple_chain, Resources(0, 1)) == 53.0


class TestReplicationAblation:
    def test_equal_to_herad_on_sequential_chains(self):
        """Without replicable tasks, replication buys nothing: both DPs
        must coincide."""
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(1, 9))
            chain = random_chain(
                rng, GeneratorConfig(num_tasks=n, stateless_ratio=0.0)
            )
            resources = Resources(
                int(rng.integers(1, 4)), int(rng.integers(0, 4))
            )
            assert norep_period(chain, resources) == pytest.approx(
                herad(chain, resources).period
            )

    def test_never_beats_herad(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            chain = random_chain(
                rng, GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
            )
            resources = Resources(3, 3)
            assert (
                norep_period(chain, resources)
                >= herad(chain, resources).period - 1e-9
            )

    def test_replication_gap_on_replicable_chains(self):
        """On a fully replicable chain with many cores, replication is
        worth roughly the core count; pipelining alone is capped by the
        largest task."""
        chain = fully_replicable_chain(4, weight_big=10.0)
        resources = Resources(8, 0)
        with_rep = herad(chain, resources).period  # 40 / 8 = 5
        without = norep_period(chain, resources)  # >= max task = 10
        assert with_rep == pytest.approx(5.0)
        assert without >= 10.0

    def test_no_gap_in_ccp_regime(self):
        chain = fully_sequential_chain(6, weight_big=10.0)
        resources = Resources(3, 0)
        assert norep_period(chain, resources) == herad(chain, resources).period


class TestRegistry:
    def test_registered_as_extension(self, simple_chain, balanced_resources):
        info = get_info("norep")
        assert not info.optimal
        outcome = info.func(simple_chain, balanced_resources)
        assert outcome.feasible
