"""Tests for repro.core.otac (the homogeneous baseline)."""

from __future__ import annotations

import numpy as np
import pytest
from oracle_bruteforce import brute_force_optimal

from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidPlatformError
from repro.core.otac import otac, otac_big, otac_little
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources
from repro.workloads.synthetic import GeneratorConfig, random_chain


class TestBasics:
    def test_uses_only_requested_type(self, simple_profile):
        for core_type in (CoreType.BIG, CoreType.LITTLE):
            outcome = otac(simple_profile, 3, core_type)
            assert outcome.feasible
            assert all(s.core_type is core_type for s in outcome.solution)

    def test_single_core_is_whole_chain(self, simple_profile):
        outcome = otac(simple_profile, 1, CoreType.BIG)
        assert outcome.solution.num_stages == 1
        assert outcome.period == simple_profile.total_weight(CoreType.BIG)

    def test_zero_cores_rejected(self, simple_profile):
        with pytest.raises(InvalidPlatformError):
            otac(simple_profile, 0, CoreType.BIG)

    def test_wrappers_use_budget_halves(self, simple_profile):
        resources = Resources(3, 2)
        big = otac_big(simple_profile, resources)
        little = otac_little(simple_profile, resources)
        assert big.solution.core_usage().little == 0
        assert little.solution.core_usage().big == 0
        assert big.solution.core_usage().big <= 3
        assert little.solution.core_usage().little <= 2


class TestOptimality:
    """OTAC is optimal on homogeneous resources (up to the binary-search
    epsilon) — validated against the exhaustive oracle."""

    @pytest.mark.parametrize("core_type", [CoreType.BIG, CoreType.LITTLE])
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_matches_bruteforce_random(self, core_type, cores):
        rng = np.random.default_rng(int(core_type) * 100 + cores)
        config = GeneratorConfig(num_tasks=7, stateless_ratio=0.5)
        eps = 1.0 / cores
        for _ in range(15):
            profile = ChainProfile(random_chain(rng, config))
            outcome = otac(profile, cores, core_type)
            budget = (
                Resources(cores, 0)
                if core_type is CoreType.BIG
                else Resources(0, cores)
            )
            optimal = brute_force_optimal(profile, budget).period(profile)
            assert optimal - 1e-9 <= outcome.period <= optimal + eps + 1e-9

    def test_fully_replicable_single_stage_optimal(self):
        """When every task is replicable, the optimum on homogeneous cores
        is one stage replicated over all cores [Benoit & Robert 2010]."""
        chain = TaskChain.from_weights(
            [6, 4, 2, 8], [12, 8, 4, 16], [True] * 4
        )
        profile = ChainProfile(chain)
        outcome = otac(profile, 4, CoreType.BIG, epsilon=1e-9)
        assert outcome.period == pytest.approx(20 / 4)

    def test_pure_pipelining_regime(self):
        """All-sequential chains reduce to chains-on-chains partitioning."""
        chain = TaskChain.from_weights(
            [5, 5, 5, 5, 5, 5], [9, 9, 9, 9, 9, 9], [False] * 6
        )
        profile = ChainProfile(chain)
        outcome = otac(profile, 3, CoreType.BIG)
        assert outcome.period == pytest.approx(10.0)
        assert outcome.solution.num_stages == 3


class TestPaperGap:
    def test_single_type_lags_heterogeneous(self):
        """The paper's headline: OTAC on one type loses to strategies that
        use both — here on a chain with a heavy replicable tail."""
        from repro.core.herad import herad

        chain = TaskChain.from_weights(
            [10, 2, 40], [20, 4, 80], [False, True, True]
        )
        profile = ChainProfile(chain)
        resources = Resources(2, 2)
        h = herad(profile, resources).period
        ob = otac_big(profile, resources).period
        ol = otac_little(profile, resources).period
        assert h <= min(ob, ol)
