"""The certificate auditor: accepts real solutions, rejects each corruption."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.certify import (
    audit_solution,
    certify_outcome,
    certify_solution,
    optimality_bracket,
)
from repro.core.chain_stats import ChainProfile
from repro.core.errors import CertificationError, InvalidChainError
from repro.core.herad import herad
from repro.core.registry import get_info, strategy_names
from repro.core.solution import Solution
from repro.core.stage import Stage
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources


@pytest.fixture
def chain() -> TaskChain:
    return TaskChain.from_weights(
        weights_big=[3, 5, 2, 7, 1, 4, 6, 2],
        weights_little=[6, 10, 4, 14, 2, 8, 12, 4],
        replicable=[False, True, True, False, True, True, False, True],
    )


@pytest.fixture
def resources() -> Resources:
    return Resources(big=3, little=4)


def _raw_solution(stages) -> Solution:
    """Assemble a Solution bypassing constructor validation.

    The auditor must catch corruption even when it could never pass the
    constructors — certificates are the independent line of defense.
    """
    solution = Solution.__new__(Solution)
    object.__setattr__(solution, "stages", tuple(stages))
    return solution


def _codes(report) -> set:
    return {v.code for v in report.violations}


class TestAcceptance:
    def test_every_strategy_certifies(self, chain, resources):
        for name in strategy_names(paper_only=False):
            info = get_info(name)
            outcome = info.func(chain, resources)
            report = certify_outcome(
                outcome, chain, resources, optimal=info.optimal, context=name
            )
            assert report.ok
            assert math.isclose(report.period, outcome.period, rel_tol=1e-9)

    def test_profile_and_chain_audit_identically(self, chain, resources):
        outcome = herad(chain, resources)
        via_chain = certify_outcome(outcome, chain, resources, optimal=True)
        via_profile = certify_outcome(
            outcome, ChainProfile(chain), resources, optimal=True
        )
        assert via_chain.period == via_profile.period
        assert via_chain.ok and via_profile.ok

    def test_claims_within_tolerance_pass(self, chain, resources):
        outcome = herad(chain, resources)
        report = audit_solution(
            outcome.solution,
            chain,
            resources,
            claimed_period=outcome.period * (1.0 + 1e-12),
        )
        assert report.ok


class TestCorruptions:
    def test_empty_solution(self, chain, resources):
        report = audit_solution(Solution(()), chain, resources)
        assert _codes(report) == {"empty"}
        assert report.period == math.inf

    def test_dropped_last_stage_breaks_coverage(self, chain, resources):
        outcome = herad(chain, resources)
        truncated = Solution(outcome.solution.stages[:-1])
        report = audit_solution(truncated, chain, resources)
        assert "coverage" in _codes(report)

    def test_late_first_stage_breaks_coverage(self, chain, resources):
        shifted = Solution([Stage(1, len(chain.tasks) - 1, 1, CoreType.BIG)])
        report = audit_solution(shifted, chain, resources)
        assert "coverage" in _codes(report)

    def test_gap_between_stages_breaks_contiguity(self, chain, resources):
        n = len(chain.tasks)
        gapped = _raw_solution(
            [Stage(0, 2, 1, CoreType.BIG), Stage(4, n - 1, 1, CoreType.LITTLE)]
        )
        report = audit_solution(gapped, chain, resources)
        assert "contiguity" in _codes(report)

    def test_out_of_range_stage(self, chain, resources):
        n = len(chain.tasks)
        overrun = _raw_solution([Stage(0, n + 3, 1, CoreType.BIG)])
        report = audit_solution(overrun, chain, resources)
        assert "stage-bounds" in _codes(report)

    def test_zero_core_stage(self, chain, resources):
        n = len(chain.tasks)
        bogus_stage = _raw_stage(0, n - 1, 0, CoreType.BIG)
        report = audit_solution(
            _raw_solution([bogus_stage]), chain, resources
        )
        assert "stage-cores" in _codes(report)

    def test_budget_overrun(self, resources):
        replicable = TaskChain.from_weights(
            weights_big=[2, 3, 4],
            weights_little=[4, 6, 8],
            replicable=[True, True, True],
        )
        greedy = Solution([Stage(0, 2, 100, CoreType.BIG)])
        report = audit_solution(greedy, replicable, resources)
        assert "budget" in _codes(report)

    def test_wasted_cores_on_sequential_stage(self, chain, resources):
        n = len(chain.tasks)
        wasteful = Solution([Stage(0, n - 1, 2, CoreType.BIG)])
        report = audit_solution(wasteful, chain, resources)
        assert "wasted-cores" in _codes(report)

    def test_period_mismatch(self, chain, resources):
        outcome = herad(chain, resources)
        report = audit_solution(
            outcome.solution,
            chain,
            resources,
            claimed_period=outcome.period * 2.0,
        )
        assert "period-mismatch" in _codes(report)

    def test_usage_mismatch(self, chain, resources):
        outcome = herad(chain, resources)
        usage = outcome.solution.core_usage()
        report = audit_solution(
            outcome.solution,
            chain,
            resources,
            claimed_big=usage.big + 1,
            claimed_little=usage.little,
        )
        assert "usage-mismatch" in _codes(report)

    def test_target_period_exceeded(self, chain, resources):
        outcome = herad(chain, resources)
        report = audit_solution(
            outcome.solution,
            chain,
            resources,
            target_period=outcome.period / 2.0,
        )
        assert "target-period" in _codes(report)

    def test_tampered_outcome_is_rejected(self, chain, resources):
        outcome = herad(chain, resources)
        tampered = dataclasses.replace(outcome, period=outcome.period * 0.5)
        with pytest.raises(CertificationError, match="period-mismatch"):
            certify_outcome(tampered, chain, resources, context="herad")

    def test_certify_solution_raises_with_context(self, chain, resources):
        outcome = herad(chain, resources)
        with pytest.raises(CertificationError, match="tampered-run"):
            certify_solution(
                outcome.solution,
                chain,
                resources,
                claimed_period=outcome.period + 1.0,
                context="tampered-run",
            )


def _raw_stage(start: int, end: int, cores: int, core_type: CoreType) -> Stage:
    """A Stage bypassing __post_init__ validation (corruption fixtures)."""
    stage = Stage.__new__(Stage)
    object.__setattr__(stage, "start", start)
    object.__setattr__(stage, "end", end)
    object.__setattr__(stage, "cores", cores)
    object.__setattr__(stage, "core_type", core_type)
    return stage


class TestOptimalityBracket:
    def test_bracket_is_ordered_and_contains_herad(self, chain, resources):
        lower, upper = optimality_bracket(chain, resources)
        assert 0 < lower <= upper
        outcome = herad(chain, resources)
        assert lower <= outcome.period * (1 + 1e-9)
        assert outcome.period <= upper * (1 + 1e-9)

    def test_impossibly_fast_schedule_violates_lower_bound(self, resources):
        replicable = TaskChain.from_weights(
            weights_big=[2, 3, 4],
            weights_little=[4, 6, 8],
            replicable=[True, True, True],
        )
        overpacked = Solution([Stage(0, 2, 1000, CoreType.BIG)])
        report = audit_solution(
            overpacked, replicable, resources, optimal=True
        )
        assert "optimality-lower-bound" in _codes(report)
        assert "budget" in _codes(report)

    def test_slow_schedule_violates_upper_bound(self, chain, resources):
        whole = Solution([Stage(0, len(chain.tasks) - 1, 1, CoreType.LITTLE)])
        report = audit_solution(whole, chain, resources, optimal=True)
        assert "optimality-upper-bound" in _codes(report)

    def test_empty_budget_rejected(self, chain):
        from repro.core.errors import InvalidPlatformError

        with pytest.raises(InvalidPlatformError):
            optimality_bracket(chain, Resources(0, 0))


class TestInputValidation:
    def test_foreign_chain_type_rejected(self, resources):
        with pytest.raises(InvalidChainError, match="TaskChain or ChainProfile"):
            audit_solution(Solution(()), object(), resources)
