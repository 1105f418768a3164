"""k-type platform tests: value objects, solvers, and cross-checks.

The two-type paper behavior is pinned bitwise by ``test_k2_oracle.py``;
this module exercises the *generalized* surface — k-type budgets, weights,
and the exhaustive reference solver — and cross-checks it:

* at k = 2, the reference solver agrees with HeRAD (the paper's optimal DP)
  to within the binary-search tolerance;
* at k = 3, the reference solver agrees with the generalized brute force,
  and the k-type heuristics certify and stay above the reference period.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle_bruteforce import brute_force_optimal

from repro.core.bounds import search_epsilon
from repro.core.certify import certify_outcome
from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidChainError, InvalidPlatformError
from repro.core.fertac import efficiency_order, fertac
from repro.core.herad import herad
from repro.core.norep import norep_optimal
from repro.core.reference import ktype_reference
from repro.core.registry import STRATEGIES, get_info
from repro.core.task import Task, TaskChain
from repro.core.twocatac import twocatac
from repro.core.types import (
    CoreType,
    Resources,
    core_types,
    format_usage,
    type_name,
    type_symbol,
)
from repro.workloads.synthetic import (
    GeneratorConfig,
    chain_batch,
    ktype_chain_batch,
    random_chain,
    random_ktype_chain,
)


def _k3_chains(count=6, num_tasks=6, seed=7):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=0.5)
    return list(ktype_chain_batch(count, config, ktype=3, seed=seed))


class TestCoreTypesIdiom:
    def test_k2_returns_the_enum_members(self):
        assert core_types(2) == (CoreType.BIG, CoreType.LITTLE)
        assert core_types(2)[0] is CoreType.BIG

    def test_k_gt_2_returns_plain_indices(self):
        assert core_types(4) == (0, 1, 2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidPlatformError):
            core_types(0)

    def test_symbols_and_names(self):
        assert [type_symbol(v) for v in range(4)] == ["B", "L", "T2", "T3"]
        assert [type_name(v) for v in range(4)] == [
            "big", "little", "type2", "type3",
        ]
        assert format_usage((3, 2, 1)) == "(3B, 2L, 1T2)"


class TestKTypeResources:
    def test_from_counts_roundtrip(self):
        budget = Resources.from_counts((5, 3, 2))
        assert budget.counts == (5, 3, 2)
        assert budget.ktype == 3
        assert budget.total == 10
        assert budget.big == 5
        assert list(budget) == [5, 3, 2]
        assert str(budget) == "(5B, 3L, 2T2)"

    def test_two_type_constructor_equals_from_counts(self):
        assert Resources(4, 6) == Resources.from_counts((4, 6))

    def test_minus_and_fits_on_third_type(self):
        budget = Resources.from_counts((2, 2, 2))
        assert budget.minus(2, 2).counts == (2, 2, 0)
        assert budget.fits(2, 2, 2)
        assert not budget.fits(2, 2, 3)
        assert budget.fits(2, 2)  # missing trailing types mean zero
        assert not budget.fits(1, 1, 1, 1)  # more types than the budget

    def test_usable_types_skips_empty_pools(self):
        budget = Resources.from_counts((2, 0, 1))
        assert budget.usable_types() == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Resources.from_counts((2, -1, 1))


class TestKTypeChains:
    def test_from_weight_matrix(self):
        chain = TaskChain.from_weight_matrix(
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [True, False]
        )
        assert chain.ktype == 3
        assert chain.tasks[0].weight(0) == 1.0
        assert chain.tasks[0].weight(1) == 3.0
        assert chain.tasks[0].weight(2) == 5.0

    def test_mixed_ktype_tasks_rejected(self):
        with pytest.raises(InvalidChainError):
            TaskChain(
                (
                    Task("a", 1.0, 2.0, True, extra_weights=(3.0,)),
                    Task("b", 1.0, 2.0, True),
                )
            )

    def test_fingerprint_distinguishes_extra_weights(self):
        base = TaskChain.from_weight_matrix([[1.0], [2.0]], [True])
        k3a = TaskChain.from_weight_matrix([[1.0], [2.0], [3.0]], [True])
        k3b = TaskChain.from_weight_matrix([[1.0], [2.0], [4.0]], [True])
        assert len({base.fingerprint, k3a.fingerprint, k3b.fingerprint}) == 3

    def test_ktype_generator_reduces_to_paper_distribution(self):
        config = GeneratorConfig(num_tasks=10, stateless_ratio=0.4)
        paper = list(chain_batch(4, config, seed=3))
        ktype = list(ktype_chain_batch(4, config, ktype=2, seed=3))
        assert [c.fingerprint for c in paper] == [
            c.fingerprint for c in ktype
        ]

    def test_ktype_generator_draws_k_columns(self):
        rng = np.random.default_rng(0)
        chain = random_ktype_chain(rng, GeneratorConfig(num_tasks=5), ktype=4)
        assert chain.ktype == 4
        for task in chain.tasks:
            for v in range(1, 4):
                assert task.weight(v) >= task.weight(0)

    def test_ktype_below_two_rejected(self):
        with pytest.raises(InvalidChainError):
            random_ktype_chain(np.random.default_rng(0), ktype=1)


class TestReferenceCrossChecks:
    def test_matches_herad_at_k2(self):
        config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
        rng = np.random.default_rng(11)
        for budget in (Resources(3, 3), Resources(4, 1), Resources(1, 4)):
            eps = search_epsilon(budget)
            for _ in range(6):
                profile = ChainProfile(random_chain(rng, config))
                ref = ktype_reference(profile, budget)
                opt = herad(profile, budget)
                assert ref.solution.is_valid(profile, budget)
                assert abs(ref.period - opt.period) <= eps

    def test_matches_bruteforce_at_k3(self):
        budget = Resources.from_counts((2, 2, 1))
        eps = search_epsilon(budget)
        for chain in _k3_chains(count=5, num_tasks=5):
            profile = ChainProfile(chain)
            ref = ktype_reference(profile, budget)
            exact = brute_force_optimal(profile, budget)
            assert ref.solution.is_valid(profile, budget)
            assert abs(ref.period - exact.period(profile)) <= eps

    def test_certifies_at_k3(self):
        budget = Resources.from_counts((3, 2, 2))
        info = get_info("ktype_ref")
        for chain in _k3_chains(count=4):
            profile = ChainProfile(chain)
            outcome = info.func(profile, budget)
            certify_outcome(
                outcome, profile, budget, optimal=False, context="ktype_ref"
            )


class TestHeuristicsAtK3:
    BUDGET = Resources.from_counts((3, 3, 2))

    def test_efficiency_order_reverses_types(self):
        assert efficiency_order(Resources(2, 2)) == (
            CoreType.LITTLE,
            CoreType.BIG,
        )
        assert efficiency_order(self.BUDGET) == (2, 1, 0)

    @pytest.mark.parametrize("strategy", ["fertac", "2catac", "otac_b", "otac_l"])
    def test_valid_and_bounded_below_by_reference(self, strategy):
        info = get_info(strategy)
        for chain in _k3_chains(count=4):
            profile = ChainProfile(chain)
            outcome = info.func(profile, self.BUDGET)
            assert outcome.solution.is_valid(profile, self.BUDGET)
            certify_outcome(
                outcome, profile, self.BUDGET, optimal=False, context=strategy
            )
            reference = ktype_reference(profile, self.BUDGET)
            eps = search_epsilon(self.BUDGET)
            assert outcome.period >= reference.period - eps

    def test_two_type_only_strategies_reject_k3(self):
        chain = _k3_chains(count=1)[0]
        for solver in (herad, norep_optimal):
            with pytest.raises(InvalidPlatformError):
                solver(chain, self.BUDGET)

    def test_registry_flags_two_type_only(self):
        assert STRATEGIES["herad"].two_type_only
        assert STRATEGIES["norep"].two_type_only
        assert not STRATEGIES["ktype_ref"].two_type_only
        assert not STRATEGIES["fertac"].two_type_only

    def test_budget_wider_than_chain_rejected(self):
        chain = TaskChain.from_weights([3.0, 4.0], [5.0, 6.0], [True, False])
        with pytest.raises(InvalidPlatformError):
            fertac(chain, self.BUDGET)

    def test_twocatac_prefers_efficient_types(self):
        # One replicable task, plenty of every type: the secondary objective
        # must land the stage on the most efficient class that meets P.
        chain = TaskChain.from_weight_matrix(
            [[4.0], [4.0], [4.0]], [True]
        )
        budget = Resources.from_counts((2, 2, 2))
        outcome = twocatac(chain, budget)
        usage = outcome.solution.core_usage(budget.ktype)
        assert usage.counts[2] > 0
        assert usage.counts[0] == 0
