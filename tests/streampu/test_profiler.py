"""Tests for repro.streampu.profiler (the profile -> schedule loop)."""

from __future__ import annotations

import pytest

from repro.core.herad import herad
from repro.core.types import CoreType, Resources
from repro.streampu import profiler
from repro.streampu.module import CallableTask, SyntheticSleepTask
from repro.streampu.profiler import profile_chain, profile_executor


class _Clock:
    """The profiler's clock, advanced only by the executors it times — no
    tier-1 assert reads the machine's wall clock."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        monkeypatch.setattr(profiler, "time", self)

    def perf_counter(self):
        return self.now

    def task(self, seconds, name="timed"):
        def process(payload):
            self.now += seconds
            return payload

        return CallableTask(seconds, process, name=name)


class TestProfileExecutor:
    def test_measures_sleep_duration(self, monkeypatch):
        clock = _Clock(monkeypatch)
        # 0.25 s per call: exact in binary, so the mean is exact too.
        measured = profile_executor(clock.task(0.25), repetitions=3, warmup=1)
        assert measured == 0.25
        assert clock.now == 1.0  # the warm-up ran and was not timed

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            profile_executor(SyntheticSleepTask(weight=1.0), repetitions=0)

    def test_payload_forwarded(self):
        seen = []
        executor = CallableTask(1.0, lambda p: seen.append(p) or p)
        profile_executor(executor, payload="x", repetitions=2, warmup=1)
        assert seen == ["x", "x", "x"]


class TestProfileChain:
    def make_executors(self, weights, scale):
        return [
            SyntheticSleepTask(weight=w, time_scale=scale, name=f"t{i}")
            for i, w in enumerate(weights)
        ]

    def test_chain_reflects_speeds(self, monkeypatch):
        clock = _Clock(monkeypatch)
        # Little "cores" are 2x slower; time_unit 2^-10 s keeps weights exact.
        unit = 2.0 ** -10
        big = [clock.task(w * unit, f"t{i}") for i, w in enumerate([100, 200])]
        little = [clock.task(w * unit, f"t{i}") for i, w in enumerate([200, 400])]
        chain, profiles = profile_chain(
            big, little, [True, False], repetitions=2, time_unit=unit
        )
        assert [p.name for p in profiles] == ["t0", "t1"]
        assert [t.weight(CoreType.BIG) for t in chain] == [100.0, 200.0]
        assert [t.weight(CoreType.LITTLE) for t in chain] == [200.0, 400.0]
        assert profiles[1].little_latency == 400 * unit

    def test_profiled_chain_is_schedulable(self):
        big = self.make_executors([50, 100, 50], scale=1e-6)
        little = self.make_executors([100, 200, 100], scale=1e-6)
        chain, _ = profile_chain(
            big, little, [False, True, True], repetitions=2
        )
        outcome = herad(chain, Resources(2, 2))
        assert outcome.feasible
        assert outcome.solution.covers(chain)

    def test_length_mismatch_rejected(self):
        big = self.make_executors([1], scale=1e-9)
        with pytest.raises(ValueError):
            profile_chain(big, [], [True])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profile_chain([], [], [])

    def test_replicability_passthrough(self):
        big = self.make_executors([1, 1], scale=1e-9)
        little = self.make_executors([1, 1], scale=1e-9)
        chain, profiles = profile_chain(
            big, little, [True, False], repetitions=1
        )
        assert [t.replicable for t in chain] == [True, False]
        assert [p.replicable for p in profiles] == [True, False]
