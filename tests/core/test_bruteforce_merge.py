"""Tests for the brute-force oracle and the merge post-pass."""

from __future__ import annotations

import numpy as np
import pytest
from oracle_bruteforce import (
    _partitions,
    brute_force_optimal,
    brute_force_period,
)

from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidPlatformError, SchedulingError
from repro.core.merge import merge_replicable_stages
from repro.core.solution import Solution
from repro.core.stage import Stage
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources


class TestPartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 8)])
    def test_counts(self, n, count):
        assert len(list(_partitions(n))) == count

    def test_each_partition_covers(self):
        for intervals in _partitions(4):
            assert intervals[0][0] == 0
            assert intervals[-1][1] == 3
            for (a, b), (c, d) in zip(intervals, intervals[1:]):
                assert c == b + 1


class TestBruteForce:
    def test_known_instance(self, simple_chain, balanced_resources):
        sol = brute_force_optimal(simple_chain, balanced_resources)
        assert sol.period(simple_chain) == 10.0
        assert sol.is_valid(simple_chain, balanced_resources)

    def test_period_helper(self, simple_chain, balanced_resources):
        assert brute_force_period(simple_chain, balanced_resources) == 10.0

    def test_sequential_stage_gets_one_core(self):
        chain = TaskChain.from_weights([5, 5], [9, 9], [False, False])
        sol = brute_force_optimal(chain, Resources(4, 4))
        for stage in sol:
            assert stage.cores == 1

    def test_size_guard(self):
        chain = TaskChain.from_weights([1] * 20, [1] * 20, [True] * 20)
        with pytest.raises(SchedulingError):
            brute_force_optimal(chain, Resources(1, 1))

    def test_empty_budget_rejected(self, simple_chain):
        with pytest.raises(InvalidPlatformError):
            brute_force_optimal(simple_chain, Resources(0, 0))

    def test_usage_is_lexicographically_minimal(self):
        # Equal speeds: period 4 achievable with (0 big, 2 little).
        chain = TaskChain.from_weights([4, 4], [4, 4], [False, False])
        sol = brute_force_optimal(chain, Resources(2, 2))
        usage = sol.core_usage()
        assert (usage.big, usage.little) == (0, 2)


class TestMerge:
    def test_merges_adjacent_replicable_same_type(self, ):
        chain = TaskChain.from_weights([4, 4, 4], [8, 8, 8], [True] * 3)
        profile = ChainProfile(chain)
        sol = Solution(
            [Stage(0, 0, 1, CoreType.BIG), Stage(1, 2, 2, CoreType.BIG)]
        )
        merged = merge_replicable_stages(sol, profile)
        assert merged.num_stages == 1
        assert merged[0].cores == 3
        assert merged.period(profile) <= sol.period(profile)

    def test_does_not_merge_across_types(self):
        chain = TaskChain.from_weights([4, 4], [8, 8], [True, True])
        sol = Solution(
            [Stage(0, 0, 1, CoreType.BIG), Stage(1, 1, 1, CoreType.LITTLE)]
        )
        assert merge_replicable_stages(sol, chain).num_stages == 2

    def test_does_not_merge_sequential(self):
        chain = TaskChain.from_weights([4, 4], [8, 8], [True, False])
        sol = Solution(
            [Stage(0, 0, 1, CoreType.BIG), Stage(1, 1, 1, CoreType.BIG)]
        )
        assert merge_replicable_stages(sol, chain).num_stages == 2

    def test_merge_chains_transitively(self):
        chain = TaskChain.from_weights([2] * 4, [4] * 4, [True] * 4)
        sol = Solution(
            [Stage(i, i, 1, CoreType.LITTLE) for i in range(4)]
        )
        merged = merge_replicable_stages(sol, chain)
        assert merged.num_stages == 1
        assert merged[0].cores == 4

    def test_empty_solution_passthrough(self, simple_profile):
        assert merge_replicable_stages(Solution.empty(), simple_profile).is_empty

    def test_merge_never_increases_period_random(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            wb = rng.integers(1, 20, n).astype(float)
            rep = rng.random(n) < 0.7
            chain = TaskChain.from_weights(wb, wb * 2, rep)
            profile = ChainProfile(chain)
            # Random contiguous decomposition with random cores/types.
            cuts = sorted(
                set(rng.integers(1, n, size=rng.integers(0, n)).tolist())
            )
            bounds = [0, *cuts, n]
            stages = [
                Stage(
                    bounds[i],
                    bounds[i + 1] - 1,
                    int(rng.integers(1, 4)),
                    CoreType(int(rng.integers(0, 2))),
                )
                for i in range(len(bounds) - 1)
            ]
            sol = Solution(stages)
            merged = merge_replicable_stages(sol, profile)
            assert merged.period(profile) <= sol.period(profile) + 1e-12
            assert merged.covers(profile)
