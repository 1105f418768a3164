"""Tests for warm-started incremental scheduling (repro.core.warmstart)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.certify import optimality_bracket
from repro.core.chain_stats import ChainProfile
from repro.core.registry import get_info
from repro.core.types import Resources
from repro.core.warmstart import warm_start
from repro.workloads.synthetic import GeneratorConfig, random_ktype_chain

_CONFIG = GeneratorConfig(num_tasks=10, stateless_ratio=0.5)


def _instance(seed=0):
    rng = np.random.default_rng(seed)
    chain = random_ktype_chain(rng, _CONFIG, 2, name=f"w{seed}")
    return ChainProfile(chain)


def _cold(profile, resources, strategy="2catac"):
    return get_info(strategy).func(profile, resources)


class TestRefusals:
    def test_none_on_empty_budget(self):
        profile = _instance()
        previous = _cold(profile, Resources.from_counts((3, 3)))
        assert warm_start(previous, profile, Resources.from_counts((0, 0))) is None

    def test_none_when_fewer_cores_than_stages(self):
        profile = _instance()
        previous = _cold(profile, Resources.from_counts((4, 4)))
        stages = len(previous.solution.stages)
        if stages < 2:
            pytest.skip("previous solution degenerated to one stage")
        tiny = Resources.from_counts((stages - 1, 0))
        assert warm_start(previous, profile, tiny) is None

    def test_none_when_chain_length_changed(self):
        profile = _instance(0)
        previous = _cold(profile, Resources.from_counts((3, 3)))
        rng = np.random.default_rng(99)
        other = ChainProfile(
            random_ktype_chain(
                rng, GeneratorConfig(num_tasks=4, stateless_ratio=0.5), 2
            )
        )
        assert warm_start(previous, other, Resources.from_counts((3, 3))) is None


class TestValidity:
    @pytest.mark.parametrize("seed", range(8))
    def test_warm_outcomes_are_valid_schedules(self, seed):
        profile = _instance(seed)
        previous = _cold(profile, Resources.from_counts((4, 4)))
        shrunk = Resources.from_counts((3, 3))
        warm = warm_start(previous, profile, shrunk)
        if warm is None:
            return  # the frozen partition legitimately cannot fit
        assert warm.solution.is_valid(profile, shrunk)
        assert warm.period == warm.solution.period(profile)
        assert warm.iterations == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_same_budget_warm_stays_within_heuristic_bound(self, seed):
        """On an unchanged budget the frozen partition must land within the
        cold solver's proven feasibility bracket."""
        profile = _instance(seed)
        budget = Resources.from_counts((3, 3))
        previous = _cold(profile, budget)
        warm = warm_start(previous, profile, budget)
        assert warm is not None
        _, upper = optimality_bracket(profile, budget)
        assert warm.period <= upper * (1 + 1e-9)

    def test_certified_against_the_independent_checker(self):
        from repro.core.certify import certify_outcome

        profile = _instance(1)
        budget = Resources.from_counts((4, 3))
        warm = warm_start(_cold(profile, budget), profile, budget)
        assert warm is not None
        certify_outcome(warm, profile, budget, optimal=False, context="warm")


class TestWaterFill:
    def test_surplus_cores_never_worsen_the_period(self):
        profile = _instance(2)
        small = Resources.from_counts((2, 2))
        big = Resources.from_counts((5, 5))
        previous = _cold(profile, small)
        warm_small = warm_start(previous, profile, small)
        warm_big = warm_start(previous, profile, big)
        assert warm_small is not None and warm_big is not None
        assert warm_big.period <= warm_small.period + 1e-12

    def test_reweighted_chain_is_refit_on_the_frozen_partition(self):
        profile = _instance(3)
        budget = Resources.from_counts((3, 3))
        previous = _cold(profile, budget)
        rng = np.random.default_rng(77)
        mutated = ChainProfile(
            random_ktype_chain(rng, _CONFIG, 2, name="w3")
        )
        warm = warm_start(previous, mutated, budget)
        assert warm is not None
        assert warm.solution.is_valid(mutated, budget)
        # The interval partition is frozen: same stage boundaries.
        assert [
            (s.start, s.end) for s in warm.solution.stages
        ] == [(s.start, s.end) for s in previous.solution.stages]
