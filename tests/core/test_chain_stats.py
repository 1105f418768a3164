"""Tests for repro.core.chain_stats (ChainProfile and Algo. 3 primitives)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain_stats import ChainProfile, profile_of
from repro.core.errors import InvalidChainError, InvalidParameterError
from repro.core.herad import _pack
from repro.core.task import TaskChain
from repro.core.types import INFINITY, CoreType


@pytest.fixture
def profile(simple_chain) -> ChainProfile:
    return ChainProfile(simple_chain)


class TestBasics:
    def test_totals(self, profile):
        assert profile.total_weight(CoreType.BIG) == 24
        assert profile.total_weight(CoreType.LITTLE) == 53

    def test_max_weights(self, profile):
        assert profile.max_weight(CoreType.BIG) == 10
        assert profile.max_weight(CoreType.LITTLE) == 21

    def test_max_sequential_weight(self, profile):
        # Only task index 2 is sequential.
        assert profile.max_sequential_weight(CoreType.BIG) == 3
        assert profile.max_sequential_weight(CoreType.LITTLE) == 8

    def test_max_sequential_weight_zero_when_fully_replicable(self):
        chain = TaskChain.from_weights([1, 2], [2, 4], [True, True])
        p = ChainProfile(chain)
        assert p.max_sequential_weight(CoreType.BIG) == 0.0

    def test_profile_of_idempotent(self, profile):
        assert profile_of(profile) is profile

    def test_profile_of_wraps_chain(self, simple_chain):
        assert isinstance(profile_of(simple_chain), ChainProfile)


class TestIntervalQueries:
    def test_interval_weight_matches_sum(self, profile, simple_chain):
        for s in range(4):
            for e in range(s, 4):
                expected = sum(
                    t.weight_big for t in simple_chain.tasks[s : e + 1]
                )
                assert profile.interval_weight(s, e, CoreType.BIG) == expected

    def test_interval_bounds_checked(self, profile):
        with pytest.raises(InvalidChainError):
            profile.interval_weight(2, 1, CoreType.BIG)
        with pytest.raises(InvalidChainError):
            profile.interval_weight(0, 4, CoreType.BIG)

    def test_is_replicable(self, profile):
        assert profile.is_replicable(0, 1)
        assert not profile.is_replicable(0, 2)
        assert not profile.is_replicable(2, 2)
        assert profile.is_replicable(3, 3)

    def test_next_sequential(self, profile):
        assert list(profile.next_sequential) == [2, 2, 2, 4, 4]

    def test_final_replicable_task(self, profile):
        assert profile.final_replicable_task(0, 0) == 1
        assert profile.final_replicable_task(3, 3) == 3

    def test_final_replicable_task_requires_replicable(self, profile):
        with pytest.raises(InvalidChainError):
            profile.final_replicable_task(0, 2)


class TestStageWeight:
    def test_replicable_stage_divides(self, profile):
        assert profile.stage_weight(0, 1, 2, CoreType.BIG) == 7.0

    def test_sequential_stage_ignores_cores(self, profile):
        assert profile.stage_weight(0, 2, 1, CoreType.BIG) == 17.0
        assert profile.stage_weight(0, 2, 5, CoreType.BIG) == 17.0

    def test_zero_cores_is_infinite(self, profile):
        assert profile.stage_weight(0, 1, 0, CoreType.BIG) == INFINITY

    def test_little_weights_used(self, profile):
        assert profile.stage_weight(0, 0, 1, CoreType.LITTLE) == 9.0


class TestRequiredCores:
    def test_formula(self, profile):
        # w([0,1], B) = 14; ceil(14/5) = 3.
        assert profile.required_cores(0, 1, CoreType.BIG, 5.0) == 3

    def test_minimum_one(self, profile):
        assert profile.required_cores(0, 0, CoreType.BIG, 100.0) == 1

    def test_invalid_period(self, profile):
        with pytest.raises(ValueError):
            profile.required_cores(0, 1, CoreType.BIG, 0.0)
        with pytest.raises(ValueError):
            profile.required_cores(0, 1, CoreType.BIG, math.inf)


class TestMaxPacking:
    def test_packs_under_period(self, profile):
        # Big weights 4, 10, 3, 7; one core, period 14 packs tasks 0-1.
        assert profile.max_packing(0, 1, CoreType.BIG, 14.0) == 1

    def test_sequential_region_reached(self, profile):
        # Period 17 packs 0..2 (sum 17, contains the sequential task).
        assert profile.max_packing(0, 1, CoreType.BIG, 17.0) == 2

    def test_replication_extends_packing(self, profile):
        # Two cores halve the replicable prefix weight: 14/2 = 7 <= 7.
        assert profile.max_packing(0, 2, CoreType.BIG, 7.0) == 1

    def test_forced_single_task(self, profile):
        # Nothing fits in period 1, but the stage still takes task 0.
        assert profile.max_packing(0, 1, CoreType.BIG, 1.0) == 0

    def test_zero_cores_forced(self, profile):
        assert profile.max_packing(0, 0, CoreType.BIG, 100.0) == 0

    def test_whole_chain(self, profile):
        assert profile.max_packing(0, 1, CoreType.BIG, 100.0) == 3

    @given(
        weights=st.lists(st.integers(1, 50), min_size=1, max_size=12),
        seq_mask=st.lists(st.booleans(), min_size=1, max_size=12),
        cores=st.integers(1, 4),
        period=st.floats(1.0, 200.0),
        start=st.integers(0, 11),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, weights, seq_mask, cores, period, start):
        """MaxPacking's binary search equals the paper's linear definition."""
        n = len(weights)
        seq_mask = (seq_mask * n)[:n]
        start = start % n
        chain = TaskChain.from_weights(
            weights, [w * 2 for w in weights], [not s for s in seq_mask]
        )
        p = ChainProfile(chain)
        # Naive: max(start, max{e | w([start,e],cores) <= period}).
        best = start
        for e in range(start, n):
            if p.stage_weight(start, e, cores, CoreType.BIG) <= period:
                best = max(best, e)
        assert p.max_packing(start, cores, CoreType.BIG, period) == best


class TestVectorHelpers:
    def test_interval_weights_vector(self, profile):
        vec = profile.interval_weights_vector(3, CoreType.BIG)
        assert vec.tolist() == [24, 20, 10, 7]

    def test_replicable_to(self, profile):
        assert profile.replicable_to(1).tolist() == [True, True]
        assert profile.replicable_to(2).tolist() == [False, False, False]
        assert profile.replicable_to(3).tolist() == [False, False, False, True]

    def test_weights_view(self, profile):
        np.testing.assert_array_equal(
            profile.weights(CoreType.BIG), [4, 10, 3, 7]
        )


# -- the list/bisect mirror against the numpy formulas it replaced -----------

#: Edge weights (``Task`` rejects zero, so the subnormal stands in for it):
#: duplicates, near-zero, and values around 2**53 where float sums absorb.
_EDGE_WEIGHTS = (5e-324, 1e-300, 1.0, 1.0, 3.0, 0.1, 2.0**53 - 1, 2.0**53, 2.0**53 + 2)

_weights = st.one_of(
    st.sampled_from(_EDGE_WEIGHTS),
    st.floats(1e-6, 1e6, allow_nan=False),
    st.integers(1, 50).map(float),
)


@st.composite
def _profiles(draw):
    n = draw(st.integers(1, 12))
    ktype = draw(st.sampled_from((2, 3)))
    rows = [
        draw(st.lists(_weights, min_size=n, max_size=n)) for _ in range(ktype)
    ]
    replicable = draw(
        st.one_of(
            st.just([True] * n),
            st.just([False] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    return ChainProfile(TaskChain.from_weight_matrix(rows, replicable))


def _numpy_max_packing(profile, start, cores, v, period):
    """``max_packing`` exactly as written on ``np.searchsorted``."""
    if cores < 1:
        return start
    p = profile.prefix[v]
    base = p[start]
    nxt = int(profile.next_sequential[start])
    best = start
    hi_rep = min(nxt - 1, profile.n - 1)
    if hi_rep >= start:
        e = int(np.searchsorted(p, base + period * cores, side="right")) - 2
        e = min(e, hi_rep)
        if e >= start:
            best = max(best, e)
    if nxt <= profile.n - 1:
        e = int(np.searchsorted(p, base + period, side="right")) - 2
        e = min(e, profile.n - 1)
        if e >= nxt:
            best = max(best, e)
    return best


def _same_bits(got, want):
    assert type(got) is type(want)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestScalarMirror:
    @given(
        profile=_profiles(),
        data=st.data(),
        cores=st.integers(0, 6),
        period=st.one_of(
            st.floats(1e-9, 1e18, allow_nan=False),
            st.sampled_from((1.0, 3.0, 2.0**53, 1.7e308)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_queries_equal_the_numpy_formulas(
        self, profile, data, cores, period
    ):
        start = data.draw(st.integers(0, profile.n - 1))
        end = data.draw(st.integers(start, profile.n - 1))
        v = data.draw(st.integers(0, profile.ktype - 1))
        p = profile.prefix[v]
        w = float(p[end + 1] - p[start])
        rep = int(profile.next_sequential[start]) > end

        _same_bits(profile.interval_weight(start, end, v), w)
        assert profile.is_replicable(start, end) is rep
        if rep:
            assert profile.final_replicable_task(start, end) == min(
                int(profile.next_sequential[start]) - 1, profile.n - 1
            )
        else:
            with pytest.raises(InvalidChainError):
                profile.final_replicable_task(start, end)
        if cores < 1:
            assert profile.stage_weight(start, end, cores, v) == INFINITY
        else:
            _same_bits(
                profile.stage_weight(start, end, cores, v),
                w / cores if rep else w,
            )
        assert profile.required_cores(start, end, v, period) == max(
            1, math.ceil(w / period)
        )
        got = profile.max_packing(start, cores, v, period)
        assert type(got) is int
        assert got == _numpy_max_packing(profile, start, cores, v, period)

    @given(profile=_profiles(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_guards_still_raise(self, profile, data):
        n = profile.n
        start, end = data.draw(
            st.sampled_from(((-1, 0), (0, n), (n, n), (1, 0), (n - 1, n)))
        )
        for query in (
            lambda: profile.interval_weight(start, end, 0),
            lambda: profile.is_replicable(start, end),
            lambda: profile.final_replicable_task(start, end),
            lambda: profile.stage_weight(start, end, 1, 0),
            lambda: profile.required_cores(start, end, 0, 1.0),
            lambda: profile.max_packing(n, 1, 0, 1.0),
            lambda: profile.max_packing(-1, 1, 0, 1.0),
        ):
            with pytest.raises(InvalidChainError):
                query()
        for period in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                profile.required_cores(0, n - 1, 0, period)

    def test_mirror_is_built_by_the_first_scalar_query_only(self, simple_chain):
        profile = ChainProfile(simple_chain)
        profile.interval_weights_vector(3, CoreType.BIG)
        profile.replicable_to(3)
        profile.total_weight(CoreType.LITTLE)
        _pack([profile])
        assert profile._scalar is None  # array-only users never pay for it
        profile.is_replicable(0, 1)
        prefix, next_sequential = built = profile._scalar
        assert [list(row) for row in prefix] == [
            row.tolist() for row in profile.prefix
        ]
        assert next_sequential == profile.next_sequential.tolist()
        profile.max_packing(0, 1, CoreType.BIG, 14.0)
        assert profile._scalar is built
