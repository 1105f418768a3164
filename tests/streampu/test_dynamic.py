"""Tests for the dynamic per-task scheduling baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidPlatformError
from repro.core.herad import herad
from repro.core.task import TaskChain
from repro.core.types import Resources
from repro.streampu.dynamic import simulate_dynamic_scheduler


class TestBasics:
    def test_fully_replicable_reaches_balance(self):
        chain = TaskChain.from_weights([10] * 4, [20] * 4, [True] * 4)
        result = simulate_dynamic_scheduler(
            chain, Resources(4, 0), num_frames=200
        )
        # 40 work units / 4 cores = 10 per frame at steady state.
        assert result.measured_period == pytest.approx(10.0, rel=0.05)

    def test_sequential_task_is_the_bottleneck(self):
        chain = TaskChain.from_weights(
            [10, 30, 10], [20, 60, 20], [False, False, False]
        )
        result = simulate_dynamic_scheduler(
            chain, Resources(3, 0), num_frames=200
        )
        assert result.measured_period == pytest.approx(30.0, rel=0.05)

    def test_completions_monotone(self):
        chain = TaskChain.from_weights([5, 7], [9, 11], [False, True])
        result = simulate_dynamic_scheduler(
            chain, Resources(2, 1), num_frames=100
        )
        assert (np.diff(result.completion_times) >= -1e-9).all()

    def test_dispatch_count(self):
        chain = TaskChain.from_weights([1, 1, 1], [2, 2, 2], [True] * 3)
        result = simulate_dynamic_scheduler(
            chain, Resources(2, 0), num_frames=50
        )
        assert result.dispatches == 50 * 3

    def test_validation(self):
        chain = TaskChain.from_weights([1], [1], [True])
        with pytest.raises(InvalidPlatformError):
            simulate_dynamic_scheduler(chain, Resources(0, 0))
        with pytest.raises(ValueError):
            simulate_dynamic_scheduler(chain, Resources(1, 0), num_frames=1)
        with pytest.raises(ValueError):
            simulate_dynamic_scheduler(
                chain, Resources(1, 0), dispatch_overhead=-1.0
            )
        with pytest.raises(ValueError):
            simulate_dynamic_scheduler(chain, Resources(1, 0), window=0)


class TestOverheadCrossover:
    """The paper's related-work argument: dynamic scheduling flexes better
    than any static pipeline at zero cost, but realistic per-dispatch
    overheads at microsecond task granularity flip the comparison."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.sdr.dvbs2 import dvbs2_mac_studio_chain

        chain = dvbs2_mac_studio_chain()
        resources = Resources(8, 2)
        static = herad(chain, resources)
        return chain, resources, static

    def test_zero_overhead_beats_or_matches_static(self, instance):
        chain, resources, static = instance
        dynamic = simulate_dynamic_scheduler(
            chain, resources, num_frames=200, dispatch_overhead=0.0
        )
        assert dynamic.measured_period <= static.period * 1.02

    def test_realistic_overhead_loses_to_static(self, instance):
        chain, resources, static = instance
        for overhead_us in (100.0, 500.0):
            dynamic = simulate_dynamic_scheduler(
                chain, resources, num_frames=200, dispatch_overhead=overhead_us
            )
            assert dynamic.measured_period > static.period

    def test_overhead_monotonically_degrades(self, instance):
        chain, resources, _ = instance
        periods = [
            simulate_dynamic_scheduler(
                chain, resources, num_frames=150, dispatch_overhead=ovh
            ).measured_period
            for ovh in (0.0, 50.0, 200.0)
        ]
        assert periods[0] <= periods[1] <= periods[2]


class TestUtilization:
    def test_busy_fraction_bounded(self):
        chain = TaskChain.from_weights([10, 10], [20, 20], [True, True])
        result = simulate_dynamic_scheduler(
            chain, Resources(2, 2), num_frames=100
        )
        assert 0.0 < result.busy_fraction <= 1.0

    def test_window_limits_parallelism(self):
        chain = TaskChain.from_weights([10] * 3, [20] * 3, [True] * 3)
        narrow = simulate_dynamic_scheduler(
            chain, Resources(6, 0), num_frames=150, window=1
        )
        wide = simulate_dynamic_scheduler(
            chain, Resources(6, 0), num_frames=150, window=32
        )
        # One frame in flight serializes everything.
        assert narrow.measured_period >= wide.measured_period
        assert narrow.measured_period == pytest.approx(30.0, rel=0.05)
