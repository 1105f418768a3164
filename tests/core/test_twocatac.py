"""Tests for repro.core.twocatac (Algos. 5-6)."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from test_greedy_probe import _Partial, choose_best  # the literal Algo. 6
from test_kernels import traced_peak

from repro.core.chain_stats import ChainProfile
from repro.core.fertac import fertac
from repro.core.herad import herad
from repro.core.task import TaskChain
from repro.core.twocatac import twocatac, twocatac_compute_solution
from repro.core.types import Resources
from repro.workloads.synthetic import (
    GeneratorConfig,
    ktype_chain_batch,
    random_chain,
)


class TestChooseBest:
    """The test-side ``ChooseBestSolution`` the walk is held to."""

    def p(self, big: int, little: int) -> _Partial:
        return _Partial(stages=(), used=(big, little))

    def test_single_valid_branch(self):
        only = self.p(1, 0)
        assert choose_best(only, None) is only
        assert choose_best(None, only) is only
        assert choose_best(None, None) is None

    def test_prefers_big_to_little_exchange(self):
        # Branch B uses more little & fewer big than branch L: pick B.
        branch_b = self.p(1, 3)
        branch_l = self.p(2, 1)
        assert choose_best(branch_b, branch_l) is branch_b

    def test_prefers_little_branch_on_reverse_exchange(self):
        branch_b = self.p(3, 1)
        branch_l = self.p(1, 2)
        assert choose_best(branch_b, branch_l) is branch_l

    def test_fewer_total_cores_breaks_remaining_ties(self):
        branch_b = self.p(2, 2)
        branch_l = self.p(2, 3)
        assert choose_best(branch_b, branch_l) is branch_b
        assert choose_best(self.p(2, 3), self.p(2, 2)) is not None

    def test_full_tie_prefers_little_branch(self):
        branch_b = self.p(2, 2)
        branch_l = self.p(2, 2)
        assert choose_best(branch_b, branch_l) is branch_l


class TestComputeSolution:
    def test_explores_both_types(self):
        # A chain where the best use of cores mixes types.
        chain = TaskChain.from_weights(
            [10, 1, 10], [11, 2, 30], [False, False, False]
        )
        profile = ChainProfile(chain)
        sol = twocatac_compute_solution(profile, Resources(2, 1), 11.0)
        assert not sol.is_empty
        assert sol.period(profile) <= 11.0

    def test_empty_when_infeasible(self):
        chain = TaskChain.from_weights([50], [50], [False])
        profile = ChainProfile(chain)
        assert twocatac_compute_solution(
            profile, Resources(1, 1), 10.0
        ).is_empty

    def test_memoized_matches_plain(self):
        rng = np.random.default_rng(3)
        config = GeneratorConfig(num_tasks=10, stateless_ratio=0.5)
        for _ in range(20):
            profile = ChainProfile(random_chain(rng, config))
            resources = Resources(3, 3)
            for period in (50.0, 120.0, 300.0):
                plain = twocatac_compute_solution(profile, resources, period)
                memo = twocatac_compute_solution(
                    profile, resources, period, memoize=True
                )
                assert plain.is_empty == memo.is_empty
                if not plain.is_empty:
                    assert plain.period(profile) == memo.period(profile)
                    assert plain.core_usage() == memo.core_usage()


class TestSchedule:
    def test_valid_and_bounded_by_optimal(self, simple_profile):
        resources = Resources(2, 2)
        outcome = twocatac(simple_profile, resources)
        optimal = herad(simple_profile, resources)
        assert outcome.solution.is_valid(simple_profile, resources)
        assert outcome.period >= optimal.period - 1e-9

    def test_at_least_as_good_as_fertac_on_average(self):
        """The paper finds 2CATAC's schedules dominate FERTAC's on average."""
        rng = np.random.default_rng(21)
        config = GeneratorConfig(num_tasks=12, stateless_ratio=0.5)
        resources = Resources(6, 6)
        two, fer = [], []
        for _ in range(25):
            profile = ChainProfile(random_chain(rng, config))
            two.append(twocatac(profile, resources).period)
            fer.append(fertac(profile, resources).period)
        assert float(np.mean(two)) <= float(np.mean(fer)) + 1e-9

    def test_memoized_schedule_matches(self, simple_profile, balanced_resources):
        plain = twocatac(simple_profile, balanced_resources)
        memo = twocatac(simple_profile, balanced_resources, memoize=True)
        assert plain.period == memo.period
        assert plain.solution.core_usage() == memo.solution.core_usage()

    def test_handles_single_type_budgets(self, simple_profile):
        assert twocatac(simple_profile, Resources(2, 0)).feasible
        assert twocatac(simple_profile, Resources(0, 2)).feasible


class TestWalkMemory:
    """A probe's walk holds at most ``n * prod(counts + 1)`` memo states
    (one per ``(start, remaining budget)``) and a stage table of ``k * n``
    budget-free plans plus at most ``n * sum(counts + 1)`` budget-bound
    ones, and a solve keeps one probe's walk alive at a time.  The
    ``tracemalloc`` peak is deterministic, so the bound is stated from the
    objects' own sizes, not timed."""

    #: Bisection bookkeeping, the kept walk's ``Solution`` and Python-object
    #: noise, none of which grows with the budget.
    SLACK = 16 << 10
    #: A dict slot (hash, key, value) at a growth table's worst load, as
    #: both tables are alive while one resizes.
    SLOT = 3 * 8 * 3
    #: What one identical solve may allocate more or less than the next.
    NOISE = 1 << 10

    def _bounds(self, n, counts):
        k = len(counts)
        key = sys.getsizeof(1 << 40)
        # A memo state holds one branch: ``(stages, performance mass,
        # efficiency mass, weight)`` over its first cons cell (the rest is
        # shared with the states below it); masses and stage fields are
        # small cached ints.
        cell = (0, n - 1, max(counts), k - 1, None)
        node = (cell, sum(counts) * (k - 1), 0, 1.5)
        per_state = self.SLOT + key + sum(map(sys.getsizeof, (node, cell, 1.5)))
        per_plan = self.SLOT + key + sys.getsizeof((n, 1, 1.5)) + sys.getsizeof(1.5)
        table = per_plan * n * (k + sum(c + 1 for c in counts))
        states = per_state * n * math.prod(c + 1 for c in counts)
        return table + self.SLACK, states + table + self.SLACK

    @pytest.mark.parametrize(
        "counts", ((16, 4), (10, 10), (4, 16), (4, 4, 4)), ids=str
    )
    def test_peak_within_states_and_stage_table(self, counts):
        config = GeneratorConfig(num_tasks=20, stateless_ratio=0.5)
        (chain,) = ktype_chain_batch(1, config, ktype=len(counts), seed=27)
        profile = ChainProfile(chain)
        resources = Resources.from_counts(counts)
        plain_bound, memo_bound = self._bounds(profile.n, counts)
        for memoize, bound in ((False, plain_bound), (True, memo_bound)):
            twocatac(profile, resources, memoize=memoize)  # first-call caches
            peaks = [
                traced_peak(lambda: twocatac(profile, resources, memoize=memoize))
                for _ in range(3)
            ]
            assert max(peaks) <= bound, (memoize, peaks, bound)
            # Each probe's walk is freed when it returns: a walk left to the
            # cyclic collector piles up tens of kB until a collection runs,
            # so the peak would differ from one solve to the next.
            assert max(peaks) - min(peaks) <= self.NOISE, (memoize, peaks)
