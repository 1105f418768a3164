"""Tests for the deterministic fault-injection harness (tests/engine/faults.py)."""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.errors import (
    CertificationError,
    InvalidParameterError,
    SchedulingError,
)
from repro.core.registry import STRATEGIES
from repro.core.types import Resources
from repro.engine import is_transient
from repro.engine import pool as pool_mod
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    _FaultedSolve,
    _install,
    inject_faults,
)
from .oracle import solve_cells


def _profile(seed=0):
    config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
    (chain,) = chain_batch(1, config, seed=seed)
    return ChainProfile(chain)


class TestFaultSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="fault kind"):
            FaultSpec(kind="explode")

    def test_rejects_nonpositive_times(self):
        with pytest.raises(InvalidParameterError, match="times"):
            FaultSpec(kind="raise", times=0)

    def test_rejects_negative_seconds(self):
        with pytest.raises(InvalidParameterError, match="seconds"):
            FaultSpec(kind="hang", seconds=-1.0)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(InvalidParameterError, match="factor"):
            FaultSpec(kind="corrupt", factor=0.0)

    def test_all_kinds_are_constructible(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind=kind).kind == kind


class TestMatching:
    def test_wildcards_match_everything(self):
        spec = FaultSpec(kind="raise")
        assert spec.matches("abc", "fertac", "process")
        assert spec.matches("xyz", "herad", "serial")

    def test_fingerprint_scoping(self):
        spec = FaultSpec(kind="raise", fingerprint="abc")
        assert spec.matches("abc", "fertac", "process")
        assert not spec.matches("xyz", "fertac", "process")

    def test_strategy_scoping(self):
        spec = FaultSpec(kind="raise", strategy="fertac")
        assert spec.matches("abc", "fertac", "serial")
        assert not spec.matches("abc", "herad", "serial")

    def test_tier_scoping(self):
        spec = FaultSpec(kind="raise", tiers=("process",))
        assert spec.matches("abc", "fertac", "process")
        assert not spec.matches("abc", "fertac", "serial")


class TestTrigger:
    def test_raise_is_transient_injected_fault(self):
        with pytest.raises(InjectedFault) as excinfo:
            FaultSpec(kind="raise").trigger()
        assert is_transient(excinfo.value)

    def test_bug_is_plain_scheduling_error(self):
        with pytest.raises(SchedulingError) as excinfo:
            FaultSpec(kind="bug").trigger()
        assert not isinstance(excinfo.value, InjectedFault)

    def test_interrupt_raises_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            FaultSpec(kind="interrupt").trigger()

    def test_hang_sleeps_then_returns(self):
        FaultSpec(kind="hang", seconds=0.0).trigger()  # returns, no raise

    def test_corrupt_does_not_fire_pre_solve(self):
        FaultSpec(kind="corrupt").trigger()  # corrupt is applied post-solve


class TestFiringLedger:
    def test_fire_consumes_and_disarms(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", times=2),),
            state_dir=str(tmp_path),
        )
        assert plan.fire("fp", "fertac", "serial") is not None
        assert plan.fire("fp", "fertac", "serial") is not None
        assert plan.fire("fp", "fertac", "serial") is None
        assert plan.firings(0, "fp", "fertac") == 3

    def test_counters_are_per_instance(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", times=1),),
            state_dir=str(tmp_path),
        )
        assert plan.fire("fp1", "fertac", "serial") is not None
        assert plan.fire("fp2", "fertac", "serial") is not None
        assert plan.fire("fp1", "herad", "serial") is not None
        assert plan.fire("fp1", "fertac", "serial") is None

    def test_ledger_survives_plan_objects(self, tmp_path):
        """The counter is on disk: a fresh (e.g. re-pickled) plan sees it."""
        specs = (FaultSpec(kind="raise", times=1),)
        first = FaultPlan(specs=specs, state_dir=str(tmp_path))
        assert first.fire("fp", "fertac", "process") is not None
        second = FaultPlan(specs=specs, state_dir=str(tmp_path))
        assert second.fire("fp", "fertac", "process") is None

    def test_non_matching_rule_does_not_consume(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", strategy="herad", times=1),),
            state_dir=str(tmp_path),
        )
        assert plan.fire("fp", "fertac", "serial") is None
        assert plan.firings(0, "fp", "herad") == 0
        assert plan.fire("fp", "herad", "serial") is not None

    def test_first_matching_rule_wins(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="bug", strategy="fertac"),
                FaultSpec(kind="raise"),
            ),
            state_dir=str(tmp_path),
        )
        spec = plan.fire("fp", "fertac", "serial")
        assert spec is not None and spec.kind == "bug"


class TestCorruptionAndCertification:
    def test_certify_rejects_corrupt_claim(self, tmp_path, monkeypatch):
        """The auditor's reason to exist: tampered outcomes cannot pass."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5),),
            state_dir=str(tmp_path),
        )
        profile = _profile()
        inject_faults(monkeypatch, plan)
        with pytest.raises(
            CertificationError, match=f"fertac on chain {profile.fingerprint}"
        ):
            solve_cells(profile.chain, Resources(2, 2), ("fertac",))


class TestArming:
    def test_arming_wraps_only_hit_strategies_once(self, tmp_path, monkeypatch):
        """Re-arming (a forked worker's initializer, a second plan) never
        wraps a solver twice, and strategies a plan cannot hit run as
        shipped, batch kernel included."""
        shipped = dict(STRATEGIES)
        every = FaultPlan(specs=(FaultSpec(kind="raise"),), state_dir=str(tmp_path))
        fertac_only = FaultPlan(
            specs=(FaultSpec(kind="raise", strategy="fertac"),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, every)
        inject_faults(monkeypatch, fertac_only)
        _install(fertac_only, partial(monkeypatch.setitem, STRATEGIES))
        faulted = STRATEGIES["fertac"].func
        assert isinstance(faulted, _FaultedSolve)
        assert faulted.shipped is shipped["fertac"]
        assert faulted.plan is fertac_only
        assert STRATEGIES["fertac"].batch_func is None
        for name in set(STRATEGIES) - {"fertac"}:
            assert STRATEGIES[name] is shipped[name]

    def test_every_pool_worker_arms_the_latest_plan(self, tmp_path, monkeypatch):
        built = []

        class Recording(pool_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", Recording)
        first = FaultPlan(specs=(FaultSpec(kind="raise"),), state_dir=str(tmp_path))
        second = FaultPlan(specs=(FaultSpec(kind="bug"),), state_dir=str(tmp_path))
        inject_faults(monkeypatch, first)
        inject_faults(monkeypatch, second)
        pool_mod.ProcessPoolExecutor(max_workers=1).shutdown()
        assert built == [
            {"max_workers": 1, "initializer": _install, "initargs": (second,)}
        ]
