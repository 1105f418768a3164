"""Tests for repro.core.herad (the optimal DP) and its reference twin."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from oracle_bruteforce import brute_force_optimal
from tests.chain_shapes import (
    fully_replicable_chain,
    fully_sequential_chain,
    heavy_tail_chain,
    inverted_speed_chain,
)

from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidPlatformError
from repro.core.herad import herad, herad_batch, herad_solution
from repro.core.herad_reference import herad_reference
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources
from repro.workloads.synthetic import GeneratorConfig, random_chain


class TestSmallInstances:
    def test_single_task_single_core(self):
        chain = TaskChain.from_weights([5], [9], [False])
        assert herad(chain, Resources(1, 0)).period == 5.0
        assert herad(chain, Resources(0, 1)).period == 9.0

    def test_single_replicable_task_uses_replication(self):
        chain = TaskChain.from_weights([12], [24], [True])
        outcome = herad(chain, Resources(3, 0))
        assert outcome.period == pytest.approx(4.0)
        assert outcome.solution[0].cores == 3

    def test_sequential_task_never_replicated(self):
        chain = TaskChain.from_weights([12], [24], [False])
        outcome = herad(chain, Resources(3, 3))
        assert outcome.period == 12.0
        assert outcome.solution.core_usage().total == 1

    def test_simple_chain_optimal(self, simple_chain, balanced_resources):
        outcome = herad(simple_chain, balanced_resources)
        expected = brute_force_optimal(simple_chain, balanced_resources)
        assert outcome.period == expected.period(simple_chain)

    def test_empty_budget_rejected(self, simple_chain):
        with pytest.raises(InvalidPlatformError):
            herad(simple_chain, Resources(0, 0))

    def test_solution_only_helper(self, simple_chain, balanced_resources):
        sol = herad_solution(simple_chain, balanced_resources)
        assert sol.is_valid(simple_chain, balanced_resources)


class TestSecondaryObjective:
    def test_prefers_little_on_equal_speed(self):
        # Identical weights on both types: little cores must be used.
        chain = TaskChain.from_weights([4, 4], [4, 4], [False, False])
        outcome = herad(chain, Resources(2, 2))
        usage = outcome.solution.core_usage()
        assert usage.big == 0
        assert usage.little == 2

    def test_uses_big_only_when_needed(self):
        # The sequential task is too slow on little cores at the optimum.
        chain = TaskChain.from_weights([10, 1], [30, 1], [False, False])
        outcome = herad(chain, Resources(2, 2))
        assert outcome.period == 10.0
        usage = outcome.solution.core_usage()
        assert usage.big == 1

    def test_never_wastes_cores_on_sequential_stages(self):
        chain = fully_sequential_chain(5)
        outcome = herad(chain, Resources(5, 5))
        for stage in outcome.solution:
            assert stage.cores == 1


class TestStructuredChains:
    def test_fully_replicable_collapses_to_balance(self):
        chain = fully_replicable_chain(6, weight_big=10.0, slowdown=2.0)
        outcome = herad(chain, Resources(4, 0))
        assert outcome.period == pytest.approx(60.0 / 4)

    def test_heavy_tail_gets_the_replicas(self):
        chain = heavy_tail_chain(5, factor=50.0)
        outcome = herad(chain, Resources(4, 2))
        profile = ChainProfile(chain)
        bottleneck = outcome.solution.bottleneck(profile)
        assert outcome.solution.is_valid(profile, Resources(4, 2))
        # The heavy task's stage must hold several cores.
        heavy_stage = next(
            s for s in outcome.solution if s.start <= 4 <= s.end
        )
        assert heavy_stage.cores >= 2
        assert bottleneck.weight(profile) == outcome.period

    def test_inverted_speeds_handled(self):
        chain = inverted_speed_chain(6)
        resources = Resources(2, 2)
        outcome = herad(chain, resources)
        expected = brute_force_optimal(chain, resources)
        assert outcome.period == expected.period(chain)


class TestAgainstOracles:
    @pytest.mark.parametrize("sr", [0.0, 0.3, 0.7, 1.0])
    def test_period_matches_bruteforce(self, sr):
        rng = np.random.default_rng(int(sr * 10))
        for _ in range(20):
            n = int(rng.integers(1, 8))
            config = GeneratorConfig(num_tasks=n, stateless_ratio=sr)
            chain = random_chain(rng, config)
            big = int(rng.integers(0, 4))
            little = int(rng.integers(0, 4))
            if big + little == 0:
                big = 1
            resources = Resources(big, little)
            fast = herad(chain, resources)
            oracle = brute_force_optimal(chain, resources)
            assert fast.period == oracle.period(chain)
            assert fast.solution.is_valid(chain, resources)

    def test_matches_reference_on_usage(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            config = GeneratorConfig(num_tasks=n, stateless_ratio=0.5)
            chain = random_chain(rng, config)
            resources = Resources(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            fast = herad(chain, resources, merge=False)
            ref = herad_reference(chain, resources)
            profile = ChainProfile(chain)
            assert fast.period == ref.period(profile)
            assert fast.solution.core_usage() == ref.core_usage()


def _flags_chain(flags, seed):
    """Tasks with the given replicable flags and seeded integer weights."""
    rng = np.random.default_rng(seed)
    big, little = rng.integers(1, 9, (2, len(flags)))
    return TaskChain.from_weights(big, little, flags)


class TestEdgeCorpus:
    """The block path where it has least to stand on: fewer than two cores
    of a type (no ``u >= 2`` block, or a block of one), planes with no
    replicable start, a batch whose rows agree on no replicable start, and
    one-task chains — padded and masked cells "never an index error, a NaN
    or a runtime warning", as a test rather than a sentence."""

    _BUDGETS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (3, 3))

    #: Rows 0/1 are replicable exactly where the other is not, so at every
    #: prefix length the starts one row may replicate from are masked in
    #: the other; then no replicable task at all, nothing else, and n = 1.
    _ROWS = (
        _flags_chain([i % 2 == 0 for i in range(9)], 1),
        _flags_chain([i % 2 == 1 for i in range(9)], 2),
        _flags_chain([False] * 6, 3),
        _flags_chain([True] * 7, 4),
        _flags_chain([True], 5),
        _flags_chain([False], 6),
    )

    @pytest.mark.parametrize("budget", _BUDGETS, ids=str)
    def test_batch_rows_equal_solo_and_reference(self, budget):
        resources = Resources(*budget)
        profiles = [ChainProfile(chain) for chain in self._ROWS]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            batch = herad_batch(profiles, resources)
            solo = [herad(profile, resources) for profile in profiles]
            unmerged = [
                herad(profile, resources, merge=False) for profile in profiles
            ]
        for profile, batched, alone, raw in zip(profiles, batch, solo, unmerged):
            assert batched.solution.stages == alone.solution.stages
            assert batched.period == alone.period
            assert alone.solution.is_valid(profile, resources)
            reference = herad_reference(profile, resources)
            assert alone.period == reference.period(profile)
            assert raw.solution.core_usage() == reference.core_usage()


class TestMergeStep:
    def test_merge_keeps_period_and_usage(self):
        rng = np.random.default_rng(5)
        config = GeneratorConfig(num_tasks=10, stateless_ratio=0.9)
        for _ in range(10):
            chain = random_chain(rng, config)
            profile = ChainProfile(chain)
            resources = Resources(4, 4)
            merged = herad(chain, resources, merge=True)
            plain = herad(chain, resources, merge=False)
            assert merged.period == plain.period
            assert merged.solution.core_usage() == plain.solution.core_usage()
            assert merged.solution.num_stages <= plain.solution.num_stages

    def test_outcome_metadata(self, simple_chain, balanced_resources):
        outcome = herad(simple_chain, balanced_resources)
        assert outcome.iterations == 0
        assert outcome.bounds.lower <= outcome.period <= outcome.bounds.upper


class TestMonotonicity:
    def test_more_cores_never_hurt(self):
        rng = np.random.default_rng(17)
        config = GeneratorConfig(num_tasks=8, stateless_ratio=0.6)
        for _ in range(10):
            chain = random_chain(rng, config)
            p_small = herad(chain, Resources(1, 1)).period
            p_mid = herad(chain, Resources(2, 2)).period
            p_big = herad(chain, Resources(4, 4)).period
            assert p_big <= p_mid <= p_small

    def test_extra_type_never_hurts(self):
        rng = np.random.default_rng(23)
        config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
        for _ in range(10):
            chain = random_chain(rng, config)
            assert (
                herad(chain, Resources(2, 2)).period
                <= herad(chain, Resources(2, 0)).period
            )
            assert (
                herad(chain, Resources(2, 2)).period
                <= herad(chain, Resources(0, 2)).period
            )


class TestDegenerateWeights:
    def test_equal_weight_tasks(self):
        chain = TaskChain.from_weights([7] * 6, [7] * 6, [True] * 6)
        outcome = herad(chain, Resources(3, 3))
        assert outcome.period == pytest.approx(42 / 6)

    def test_tiny_and_huge_mixture(self):
        chain = TaskChain.from_weights(
            [1, 1000, 1], [1, 2000, 1], [True, True, True]
        )
        resources = Resources(3, 1)
        outcome = herad(chain, resources)
        oracle = brute_force_optimal(chain, resources)
        assert outcome.period == oracle.period(chain)
