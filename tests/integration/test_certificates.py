"""Differential oracle: herad vs herad_reference vs independent certificates.

Three mutually-independent implementations must agree on every instance:
the vectorized DP (:func:`repro.core.herad`), the literal pseudocode
transcription (:func:`repro.core.herad_reference`), and the certificate
auditor's re-derived period (:mod:`repro.core.certify`) — with the greedy
heuristics' solutions certifying as valid (but not necessarily optimal)
schedules on the same instances.
"""

from __future__ import annotations

import math

import pytest

from repro.core.certify import certify_outcome, certify_solution
from repro.core.chain_stats import ChainProfile
from repro.core.herad import herad
from repro.core.herad_reference import herad_reference
from repro.core.registry import get_info, strategy_names
from repro.core.types import Resources
from repro.workloads.synthetic import GeneratorConfig, chain_batch

BUDGETS = (Resources(2, 2), Resources(3, 5), Resources(6, 2))


def _instances(num_chains: int = 12, num_tasks: int = 8, seed: int = 7):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=0.5)
    return [
        ChainProfile(chain)
        for chain in chain_batch(num_chains, config, seed=seed)
    ]


class TestDifferentialOracle:
    @pytest.mark.parametrize("resources", BUDGETS, ids=str)
    def test_herad_vs_reference_vs_certificates(self, resources):
        for profile in _instances():
            fast = herad(profile, resources)
            slow_solution = herad_reference(profile, resources)
            slow_period = slow_solution.period(profile)
            assert math.isclose(fast.period, slow_period, rel_tol=1e-9), (
                f"DP and reference disagree on {profile.chain!r}"
            )
            fast_report = certify_outcome(
                fast, profile, resources, optimal=True, context="herad"
            )
            slow_report = certify_solution(
                slow_solution,
                profile,
                resources,
                claimed_period=slow_period,
                optimal=True,
                context="herad_reference",
            )
            assert math.isclose(
                fast_report.period, slow_report.period, rel_tol=1e-9
            )

    @pytest.mark.parametrize("resources", BUDGETS[:2], ids=str)
    def test_every_strategy_certifies_on_random_instances(self, resources):
        for profile in _instances(num_chains=6):
            for name in strategy_names():
                info = get_info(name)
                outcome = info.func(profile, resources)
                report = certify_outcome(
                    outcome,
                    profile,
                    resources,
                    optimal=info.optimal,
                    context=name,
                )
                assert report.ok

    def test_heuristics_never_beat_the_optimum(self):
        resources = Resources(3, 3)
        for profile in _instances(num_chains=8):
            optimum = herad(profile, resources).period
            for name in ("fertac", "2catac"):
                heuristic = get_info(name).func(profile, resources).period
                assert heuristic >= optimum * (1 - 1e-9)
