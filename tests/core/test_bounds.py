"""Tests for repro.core.bounds (period bracket and epsilon)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_bruteforce import brute_force_optimal
from tests.chain_shapes import inverted_speed_chain

from repro.core.bounds import period_bounds, search_epsilon
from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidPlatformError
from repro.core.task import TaskChain
from repro.core.types import Resources


class TestPaperRegime:
    """Big cores faster for every task — the paper's formula applies."""

    def test_balance_bound(self, simple_profile):
        bounds = period_bounds(simple_profile, Resources(2, 2))
        # sum w^B / (b+l) = 24/4 = 6; max seq w^B = 3.
        assert bounds.lower == 6.0

    def test_sequential_bound_dominates(self):
        chain = TaskChain.from_weights(
            [100, 1, 1], [200, 2, 2], [False, True, True]
        )
        bounds = period_bounds(ChainProfile(chain), Resources(4, 4))
        assert bounds.lower == 100.0

    def test_upper_at_least_lower(self, simple_profile):
        bounds = period_bounds(simple_profile, Resources(1, 1))
        assert bounds.upper >= bounds.lower

    def test_midpoint(self, simple_profile):
        bounds = period_bounds(simple_profile, Resources(2, 2))
        assert bounds.lower <= bounds.midpoint() <= bounds.upper


class TestGeneralized:
    def test_single_type_budget_uses_that_type(self):
        chain = TaskChain.from_weights([10, 10], [1, 1], [True, True])
        # Only little cores: the bound must track little weights even though
        # big weights are smaller... lower uses the fastest *usable* type.
        bounds = period_bounds(ChainProfile(chain), Resources(0, 2))
        assert bounds.lower == 1.0  # 2/2
        assert bounds.upper >= 1.0

    def test_mixed_fast_types_lower_bound_valid(self):
        # Two sequential tasks fast on *different* types: min-of-max would
        # overestimate; max-of-min is required.
        chain = TaskChain.from_weights(
            [10, 1], [1, 10], [False, False]
        )
        profile = ChainProfile(chain)
        resources = Resources(1, 1)
        bounds = period_bounds(profile, resources)
        optimal = brute_force_optimal(profile, resources).period(profile)
        assert bounds.lower <= optimal
        # tau_1 on L (1), tau_2 on B (1): optimal period is 1.
        assert optimal == 1.0

    def test_empty_budget_rejected(self, simple_profile):
        with pytest.raises(InvalidPlatformError):
            period_bounds(simple_profile, Resources(0, 0))

    @given(st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_bounds_bracket_optimum_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        wb = rng.integers(1, 30, n).astype(float)
        wl = rng.integers(1, 30, n).astype(float)  # arbitrary speeds
        rep = rng.random(n) < 0.5
        chain = TaskChain.from_weights(wb, wl, rep)
        profile = ChainProfile(chain)
        big = int(rng.integers(0, 4))
        little = int(rng.integers(0, 4))
        if big + little == 0:
            big = 1
        resources = Resources(big, little)
        bounds = period_bounds(profile, resources)
        optimal = brute_force_optimal(profile, resources).period(profile)
        assert bounds.lower <= optimal + 1e-9
        assert optimal <= bounds.upper + 1e-9

    def test_inverted_speeds_bracket(self):
        chain = inverted_speed_chain(6)
        profile = ChainProfile(chain)
        resources = Resources(2, 2)
        bounds = period_bounds(profile, resources)
        optimal = brute_force_optimal(profile, resources).period(profile)
        assert bounds.lower <= optimal <= bounds.upper


class TestEpsilon:
    def test_formula(self):
        assert search_epsilon(Resources(10, 10)) == pytest.approx(1 / 20)

    def test_empty_budget_rejected(self):
        with pytest.raises(InvalidPlatformError):
            search_epsilon(Resources(0, 0))
