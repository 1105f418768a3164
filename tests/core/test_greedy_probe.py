"""The integer greedy probe (``repro.core.packing.probe_stage``) and the
walks built on it, held to the object-level oracle in ``oracle_packing.py``.

Five contracts:

1. plan for plan, the probe is the pre-probe ``ComputeStage`` + ``stage_fits``
   (hypothesis, edge weights included);
2. a plan that did not use its whole budget is the budget-free plan, which
   every budget ``>= cores`` gets — the premise of 2CATAC's stage table —
   and the walk built on that table decides as the paper's recursion, whose
   ``ChooseBestSolution`` on usage vectors (``choose_best``) lives here;
3. hoisting the guards out of the inner loop lost no typed refusal;
4. an edge corpus solves identically on both call shapes (scalar and
   ``solve_batch``), identically to the answers frozen in
   ``tests/data/greedy_edge_oracle.json`` and, for the first-fit strategies,
   identically to the object-building oracle driven through the generic
   bisection path;
5. outcomes and work counters are the ones recorded at the parent commit.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_packing import oracle_compute_stage, oracle_first_fit, oracle_stage_fits
from test_chain_stats import _profiles  # edge weights: subnormal, duplicates, ~2**53
from tests.chain_shapes import fully_sequential_chain

from repro.core.binary_search import schedule_by_binary_search
from repro.core.certify import certify_outcome
from repro.core.chain_stats import ChainProfile
from repro.core.errors import (
    CertificationError,
    InvalidChainError,
    InvalidParameterError,
    InvalidPlatformError,
)
from repro.core.fertac import efficiency_order, fertac, fertac_compute_solution
from repro.core.otac import otac, otac_compute_solution
from repro.core.packing import compute_stage, probe_stage, probe_tables
from repro.core.registry import PAPER_ORDER, get_strategy, solve_batch
from repro.core.task import TaskChain
from repro.core.twocatac import _twocatac_walk, twocatac, twocatac_compute_solution
from repro.core.types import CoreType, Resources
from repro.engine import CampaignEngine
from repro.experiments import table1
from repro.obs import ObsConfig
from repro.platform.presets import SIMULATION_BUDGETS
from repro.workloads.synthetic import GeneratorConfig, chain_batch

_GREEDY = ("fertac", "otac_b", "otac_l", "2catac", "2catac_memo")

# The package re-exports the ``twocatac`` *function* under the module name.
_twocatac_module = importlib.import_module("repro.core.twocatac")


class TestProbeAgainstOracle:
    @given(
        profile=_profiles(),
        available=st.integers(0, 6),
        period=st.one_of(
            st.floats(1e-9, 1e18, allow_nan=False),
            st.sampled_from((1.0, 2.0, 3.0, 2.0**53, 2.0**54)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_for_plan(self, profile, available, period):
        prefix, nxt, last = probe_tables(profile, period)
        for core_type in profile.types():
            for start in range(profile.n):
                want = oracle_compute_stage(
                    profile, start, available, core_type, period
                )
                fits = oracle_stage_fits(
                    profile, start, want, available, core_type, period
                )
                end, cores, weight = probe_stage(
                    prefix[core_type], nxt, last, start, available, period
                )
                assert (end, cores) == (want.end, want.cores)
                assert (weight <= period) is fits
                if fits:
                    assert weight == profile.stage_weight(
                        start, end, cores, core_type
                    )
                # The object-level view is the same probe.
                assert (
                    compute_stage(profile, start, available, core_type, period)
                    == want
                )


#: A subnormal target against ~2^53 weights: ``weight / period`` overflows
#: to infinity, whose ``ceil`` used to raise a bare ``OverflowError`` out of
#: FERTAC and 2CATAC.
_OVERFLOW_CHAIN = TaskChain.from_weights(
    [5e-324, 5e-324, 1e-300], [2.0**53, 2.0**54, 1.0], [True, False, True]
)


class TestInfiniteCoreNeed:
    """A stage whose core need overflows to infinity does not fit: it asks
    for more cores than any budget holds, on every ``ComputeStage`` path."""

    @pytest.mark.parametrize(
        "weights, replicable, available, plan",
        [
            # Line 2: one sequential task, forced past the period.
            ([2.0**53], [False], 3, (0, 4, math.inf)),
            # Lines 3-7: a replicable run shrinks back to its two cores.
            ([2.0**53, 2.0**53, 1.0], [True, True, False], 2, (0, 2, 2.0**52)),
        ],
    )
    def test_the_probe_answers_more_cores_than_available(
        self, weights, replicable, available, plan
    ):
        sums, nxt, last = _tables_of(weights, replicable)
        assert probe_stage(sums, nxt, last, 0, available, 5e-324) == plan

    def test_the_object_oracle_agrees_at_the_overflow_corner(self):
        """The oracle's exact ``required_cores`` and the probe's
        ``available + 1`` both say "more cores than available"."""
        profile = ChainProfile(_OVERFLOW_CHAIN)
        prefix, nxt, last = probe_tables(profile, 5e-324)
        for core_type in profile.types():
            for start in range(profile.n):
                for available in range(4):
                    want = oracle_compute_stage(
                        profile, start, available, core_type, 5e-324
                    )
                    fits = oracle_stage_fits(
                        profile, start, want, available, core_type, 5e-324
                    )
                    end, cores, weight = probe_stage(
                        prefix[core_type], nxt, last, start, available, 5e-324
                    )
                    assert end == want.end
                    assert (weight <= 5e-324) is fits
                    if want.cores <= available:
                        assert cores == want.cores
                    else:
                        assert cores > available

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                "herad",
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=CertificationError,
                    reason="prefix sums absorb the 1.0 little weight next to "
                    "2^54: HeRAD claims 5e-324 for a schedule of period 1.0",
                ),
            ),
            *_GREEDY,
        ],
    )
    def test_every_strategy_certifies_on_both_call_shapes(self, name):
        resources = Resources(2, 2)
        profile = ChainProfile(_OVERFLOW_CHAIN)
        for outcome in (
            get_strategy(name)(profile, resources),
            solve_batch([profile], resources, name)[0],
        ):
            certify_outcome(
                outcome, _OVERFLOW_CHAIN, resources, optimal=name == "herad"
            )


#: More cores than any finite ``ceil(weight / period)`` (< 2^1024): ``R(inf)``.
_UNBOUNDED = 1 << 1100


def _premise(sums, nxt, last, period):
    """Hold ``R(a) = probe_stage(..., available=a)`` to ``R(inf)`` at every
    start, and return the ``ComputeStage`` paths the starts reached."""
    reached = set()
    for start in range(last + 1):
        free = probe_stage(sums, nxt, last, start, _UNBOUNDED, period)
        end, cores, _ = free
        budgets = set(range(6)) | set(range(max(0, cores - 2), cores + 3))
        for available in sorted(budgets):
            plan = probe_stage(sums, nxt, last, start, available, period)
            if available == 0:
                assert plan[2] == math.inf  # the walk skips a spent type
            if available >= cores:
                assert plan == free, (start, available)
            if plan[1] < available:
                assert plan == free, (start, available)
            if available < cores:
                # The budget binds: the plan either shrinks to ``available``
                # cores or asks for more than there are (infinite weight).
                # A stage table reusing ``free`` here spends absent cores.
                assert plan != free, (start, available)
                reached.add("bound" if plan[1] == available else "over")
        seq = nxt[start]
        if cores >= 2 and seq <= end:
            reached.add("heavy")  # Algo. 2 line 2: one sequential task, > P
        if end < seq - 1:
            reached.add("shrink")  # lines 8-12: one core given up
    return reached


def _tables_of(weights, replicable):
    """One type's ``(prefix sums, next-sequential, last index)``, as a
    :class:`ChainProfile` lays them out."""
    n = len(weights)
    sums = [0.0]
    for weight in weights:
        sums.append(sums[-1] + weight)
    nxt = [n] * (n + 1)
    for start in range(n - 1, -1, -1):
        nxt[start] = nxt[start + 1] if replicable[start] else start
    return sums, nxt, n - 1


@st.composite
def _zero_weight_tables(draw):
    """Zero weights, which a ``TaskChain`` refuses but a prefix table holds."""
    n = draw(st.integers(1, 10))
    weights = draw(
        st.lists(st.sampled_from((0.0, 0.0, 1.0, 2.0, 3.5)), min_size=n, max_size=n)
    )
    replicable = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return _tables_of(weights, replicable)


class _Partial(NamedTuple):
    """A partial solution: stages from some start to the end of the chain,
    with accumulated per-type core usage and the largest stage weight.

    ``stages`` is a cons list ``((start, end, cores, type), rest)`` ending in
    ``None``, so a branch shares its suffix instead of copying it.
    """

    stages: "tuple | None"
    used: tuple[int, ...]
    weight: float = 0.0


def _masses(used):
    """``(performance mass, efficiency mass)`` of a usage vector: cores
    weighted by reversed type index and by the type index itself; at
    ``k = 2`` exactly ``(big_used, little_used)``."""
    k = len(used)
    performance = sum(c * (k - 1 - v) for v, c in enumerate(used))
    efficiency = sum(c * v for v, c in enumerate(used))
    return performance, efficiency


def choose_best(big_branch, little_branch, outcomes=None):
    """The paper's ``ChooseBestSolution`` (Algo. 6), line for line, on two
    candidate branches.

    Both candidates, when present, already respect the target period and the
    core budget; the comparison is purely about the secondary objective.
    The first argument is the more-performant-type branch (``S_B`` at
    ``k = 2``); ties go to the second (``S_L``).  ``outcomes``, when given,
    collects which line decided.
    """
    if big_branch is None:
        return little_branch
    if little_branch is None:
        return big_branch

    bb, bl = _masses(big_branch.used)
    lb, ll = _masses(little_branch.used)
    if bl > ll and bb < lb:
        decided, kept = "exchange_big", big_branch  # S_B uses little cores better
    elif bl < ll and bb > lb:
        decided, kept = "exchange_little", little_branch  # S_L does
    elif bb + bl < lb + ll:
        decided, kept = "fewer_big", big_branch  # S_B uses fewer cores
    elif bb + bl > lb + ll:
        decided, kept = "fewer_little", little_branch  # S_L uses fewer cores
    else:
        decided, kept = "tie", little_branch  # equal totals: the later branch
    if outcomes is not None:
        outcomes.add(decided)
    return kept


def _paper_walk(profile, resources, period, outcomes=None):
    """Algos. 5-6 as written: every branch evaluates its stage afresh and
    carries the remaining budget and its usage as tuples; ``outcomes``
    collects which line of Algo. 6 decided each comparison."""
    prefix, nxt, last = probe_tables(profile, period)
    ktype = len(resources.counts)

    def solve(start, remaining):
        best = None
        for index in range(ktype):
            end, cores, weight = probe_stage(
                prefix[index], nxt, last, start, remaining[index], period
            )
            if weight > period:
                continue
            stage = (start, end, cores, index)
            spent = tuple(cores if v == index else 0 for v in range(ktype))
            if end == last:
                candidate = _Partial((stage, None), spent, weight)
            else:
                left = tuple(r - c for r, c in zip(remaining, spent))
                rest = solve(end + 1, left)
                if rest is None:
                    continue
                candidate = _Partial(
                    (stage, rest.stages),
                    tuple(u + c for u, c in zip(rest.used, spent)),
                    max(weight, rest.weight),
                )
            best = choose_best(best, candidate, outcomes)
        return best

    result = solve(0, resources.counts)
    if result is None:
        return None, math.inf
    stages, node = [], result.stages
    while node is not None:
        stages.append(node[0])
        node = node[1]
    return stages, result.weight


#: Few distinct weights, so stages, and whole branches, tie.
_TIE_WEIGHTS = (1.0, 2.0, 3.0, 8.0)


@st.composite
def _tie_heavy_profiles(draw):
    """Duplicate-rich weights; each type either shares one row (its branches
    tie stage for stage) or has its own (cores trade for cores)."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(_TIE_WEIGHTS), min_size=n, max_size=n)
    shared = draw(row)
    rows = [
        shared if draw(st.booleans()) else draw(row)
        for _ in range(draw(st.integers(2, 4)))
    ]
    replicable = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return ChainProfile(TaskChain.from_weight_matrix(rows, replicable))


def _assert_walk_decides_as_the_paper(profile, resources, period, memoize, outcomes):
    """Same stages and period as Algos. 5-6 with a fresh ``ComputeStage`` per
    branch, and no ``(type, start, budget)`` evaluated twice."""
    seen = []

    def recording(sums, nxt, last, start, available, target):
        seen.append((id(sums), start, available))
        return probe_stage(sums, nxt, last, start, available, target)

    with mock.patch.object(_twocatac_module, "probe_stage", recording):
        walk = _twocatac_walk(profile, resources, period, memoize)
    assert walk == _paper_walk(profile, resources, period, outcomes)
    assert len(seen) == len(set(seen))


#: Every line of Algo. 6 that can decide a comparison of two valid branches.
_OUTCOMES = {"exchange_big", "exchange_little", "fewer_big", "fewer_little", "tie"}


class TestStageTable:
    """2CATAC's walk keeps one budget-free plan per ``(type, start)`` and
    reuses it for every budget ``>= cores``; a plan that used fewer cores
    than it was offered is that budget-free plan.  Both rest on the premise
    below, and the walk built on them decides as the paper's recursion."""

    @given(
        profile=_profiles(),
        scale=st.sampled_from((0.3, 0.5, 0.9, 1.0, 1.5, 2.5, 7.0)),
        absolute=st.one_of(st.none(), st.floats(1e-3, 1e6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_premise_on_chains(self, profile, scale, absolute):
        """k = 2 and 3; subnormal, duplicate (tie) and ~2^53 weights."""
        prefix, nxt = profile.prefix, profile.next_sequential
        last = profile.n - 1
        heaviest = max(s[i + 1] - s[i] for s in prefix for i in range(last + 1))
        period = absolute or max(heaviest / scale, 5e-324)
        for sums in prefix:
            _premise(sums, nxt, last, period)

    @given(
        table=_zero_weight_tables(),
        period=st.sampled_from((0.5, 1.0, 1.7, 3.5, 10.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_premise_with_zero_weights(self, table, period):
        _premise(*table, period)

    @pytest.mark.parametrize(
        "weights, replicable, period, path",
        [
            ([5.0, 1.0], [False, False], 2.0, "heavy"),
            ([2.0, 2.0, 2.0, 0.5], [True, True, True, False], 2.5, "shrink"),
            ([2.0, 2.0, 2.0, 0.0], [True, True, True, False], 2.5, "shrink"),
            ([1.0, 1.0, 1.0, 1.0, 1.0], [True] * 5, 1.0, "bound"),
            ([5.0], [True], 2.0, "over"),
        ],
    )
    def test_premise_reaches_every_budget_path(
        self, weights, replicable, period, path
    ):
        """The paths the hypothesis draws must cover, each reached on purpose."""
        assert path in _premise(*_tables_of(weights, replicable), period)

    @given(
        profile=st.one_of(_profiles(), _tie_heavy_profiles()),
        counts=st.one_of(
            st.lists(st.integers(0, 4), min_size=4, max_size=4),
            st.integers(1, 3).map(lambda count: [count] * 4),  # equal budgets
        ),
        divisor=st.integers(1, 9),
        type_index=st.integers(0, 3),
        memoize=st.booleans(),
    )
    @example(
        profile=ChainProfile(TaskChain.from_weights(
            [2, 2, 2, 1, 2, 2, 2, 1], [3, 3, 3, 2, 3, 3, 3, 2],
            [True, True, True, False] * 2,
        )),
        counts=[3, 3, 0],
        divisor=6,
        type_index=1,
        memoize=False,
    )
    @example(
        profile=ChainProfile(TaskChain.from_weight_matrix(
            [[3, 9, 2, 7, 5, 4]] * 3, [True, True, False, True, True, False]
        )),
        counts=[2, 2, 2],
        divisor=4,
        type_index=0,
        memoize=False,
    )
    @example(
        profile=ChainProfile(_OVERFLOW_CHAIN),
        counts=[2, 2, 0],
        divisor=1,
        type_index=0,
        memoize=False,
    )
    @example(
        profile=ChainProfile(_OVERFLOW_CHAIN),
        counts=[1, 2, 0],
        divisor=9,
        type_index=0,
        memoize=True,
    )
    @example(
        profile=ChainProfile(TaskChain.from_weight_matrix(
            [[2, 2, 1, 2, 2]] * 4, [True, True, False, True, True]
        )),
        counts=[2, 2, 2, 2],
        divisor=3,
        type_index=3,
        memoize=True,
    )
    @settings(max_examples=150, deadline=None)
    def test_walk_decides_as_the_paper_recursion(
        self, profile, counts, divisor, type_index, memoize
    ):
        """k = 2, 3 and 4, on edge weights and on tie-heavy chains (duplicate
        weights on every type, equal per-type budgets)."""
        resources = Resources.from_counts(counts[: len(profile.types())])
        if not any(resources.counts):
            return
        # From any type's total, so a subnormal period meets ~2^53 weights.
        total = profile.prefix[type_index % profile.ktype][-1]
        period = max(total / divisor, 5e-324)
        _assert_walk_decides_as_the_paper(profile, resources, period, memoize, None)

    def test_tie_heavy_chains_reach_every_line_of_algo_6(self):
        """The walk's inline rule meets the oracle on every line: both
        outright exchanges, both fewer-cores outcomes and the equal-total
        tie that goes to the later branch, at k = 2, 3 and 4."""
        rng = random.Random(30)
        for ktype in (2, 3, 4):
            outcomes = set()
            for _ in range(200):
                n = rng.randint(2, 7)
                shared = [rng.choice(_TIE_WEIGHTS) for _ in range(n)]
                rows = [
                    shared
                    if rng.random() < 0.5
                    else [rng.choice(_TIE_WEIGHTS) for _ in range(n)]
                    for _ in range(ktype)
                ]
                replicable = [rng.random() < 0.7 for _ in range(n)]
                profile = ChainProfile(TaskChain.from_weight_matrix(rows, replicable))
                resources = Resources.from_counts([rng.randint(1, 3)] * ktype)
                period = profile.prefix[0][-1] / rng.randint(1, 6)
                for memoize in (False, True):
                    _assert_walk_decides_as_the_paper(
                        profile, resources, period, memoize, outcomes
                    )
            assert outcomes == _OUTCOMES, ktype


_PROFILE = ChainProfile(
    TaskChain.from_weights(
        [4, 4, 4, 9], [8, 8, 8, 18], [True, True, False, False]
    )
)
_BUDGET = Resources(2, 2)
_BAD_PERIODS = (0, -1, float("nan"), float("inf"))


class TestTypedRefusals:
    """Hoisting the guards to once per probe kept every refusal typed."""

    @pytest.mark.parametrize("period", _BAD_PERIODS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: fertac_compute_solution(_PROFILE, _BUDGET, p),
            lambda p: otac_compute_solution(_PROFILE, _BUDGET, p, CoreType.BIG),
            lambda p: twocatac_compute_solution(_PROFILE, _BUDGET, p),
            lambda p: twocatac_compute_solution(
                _PROFILE, _BUDGET, p, memoize=True
            ),
            lambda p: compute_stage(_PROFILE, 0, 2, CoreType.BIG, p),
        ],
        ids=["fertac", "otac", "2catac", "2catac_memo", "compute_stage"],
    )
    def test_bad_period(self, call, period):
        with pytest.raises(InvalidParameterError):
            call(period)

    @pytest.mark.parametrize("start", [-1, 4, 99])
    def test_out_of_range_start(self, start):
        with pytest.raises(InvalidChainError):
            compute_stage(_PROFILE, start, 2, CoreType.BIG, 5.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fertac(_PROFILE, Resources(0, 0)),
            lambda: twocatac(_PROFILE, Resources(0, 0)),
            lambda: twocatac(_PROFILE, Resources(0, 0), memoize=True),
            lambda: otac(_PROFILE, 0, CoreType.BIG),
            lambda: get_strategy("otac_b")(_PROFILE, Resources(0, 3)),
        ],
        ids=["fertac", "2catac", "2catac_memo", "otac", "otac_b"],
    )
    def test_zero_core_budget(self, call):
        with pytest.raises(InvalidPlatformError):
            call()

    def test_recursion_depth_is_refused_on_both_call_shapes(self):
        """2CATAC recurses one frame per stage; a chain deeper than the
        interpreter allows used to surface a bare ``RecursionError``."""
        depth = sys.getrecursionlimit() + 200
        deep = ChainProfile(fully_sequential_chain(depth))
        budget = Resources(depth, depth)
        with pytest.raises(InvalidChainError, match="recursion limit"):
            get_strategy("2catac_memo")(deep, budget)
        with pytest.raises(InvalidChainError, match="recursion limit"):
            solve_batch([deep], budget, "2catac")
        outcome = get_strategy("2catac_memo")(
            fully_sequential_chain(400), Resources(400, 400)
        )
        assert len(outcome.solution.stages) == 400

    def test_zero_core_builders_answer_empty(self):
        """Below the driver, no cores is "no schedule", not an error."""
        empty = Resources(0, 0)
        assert fertac_compute_solution(_PROFILE, empty, 5.0).is_empty
        assert twocatac_compute_solution(_PROFILE, empty, 5.0).is_empty
        assert otac_compute_solution(
            _PROFILE, empty, 5.0, CoreType.LITTLE
        ).is_empty
        assert compute_stage(_PROFILE, 0, 0, CoreType.BIG, 5.0).cores == 0

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda eps: fertac(_PROFILE, _BUDGET, epsilon=eps),
            lambda eps: otac(_PROFILE, 2, CoreType.BIG, epsilon=eps),
            lambda eps: twocatac(_PROFILE, _BUDGET, epsilon=eps),
        ],
        ids=["fertac", "otac", "2catac"],
    )
    def test_non_finite_epsilon_rejected(self, solve, epsilon):
        """nan/inf used to pass ``eps <= 0``, skip the loop and silently
        return the zero-iteration upper-bound schedule."""
        with pytest.raises(InvalidParameterError):
            solve(epsilon)


def test_a_lying_walk_is_caught_at_materialisation():
    """The driver trusts a walk probe by probe, not at the end: the one
    object it builds must re-derive the period the tuples claimed."""

    def liar(profile, resources, period):
        return [(0, profile.n - 1, 1, 0)], 1.0

    with pytest.raises(CertificationError):
        schedule_by_binary_search(_PROFILE, _BUDGET, liar)


def _facts(outcome):
    return (
        outcome.solution,
        outcome.period.hex(),
        outcome.iterations,
        outcome.probes,
    )


_DATA = Path(__file__).resolve().parent.parent / "data"
#: The edge corpus and what every greedy strategy answered on it at the
#: commit before 2CATAC's walk got its per-probe stage table.
_EDGE_ORACLE = json.loads((_DATA / "greedy_edge_oracle.json").read_text())
_EDGE_CORPUS = {
    case: (
        spec["weights"],
        spec["replicable"],
        Resources.from_counts(spec["counts"]),
    )
    for case, spec in _EDGE_ORACLE["cases"].items()
}


def _first_fit_oracle(name, profile, resources):
    """The strategy's outcome through the generic (object) bisection path."""
    if name == "fertac":
        return schedule_by_binary_search(
            profile, resources, oracle_first_fit(efficiency_order(resources))
        )
    core_type = CoreType.BIG if name == "otac_b" else CoreType.LITTLE
    cores = resources.count(core_type)
    budget = Resources(cores, 0) if name == "otac_b" else Resources(0, cores)
    return schedule_by_binary_search(
        profile, budget, oracle_first_fit((core_type,))
    )


class TestEdgeCorpus:
    @pytest.mark.parametrize("case", sorted(_EDGE_CORPUS))
    @pytest.mark.parametrize("name", _GREEDY)
    def test_both_call_shapes(self, name, case):
        rows, replicable, resources = _EDGE_CORPUS[case]
        profile = ChainProfile(TaskChain.from_weight_matrix(rows, replicable))
        scalar = get_strategy(name)
        starved = (name == "otac_b" and resources.big == 0) or (
            name == "otac_l" and resources.little == 0
        )
        if starved:
            with pytest.raises(InvalidPlatformError):
                scalar(profile, resources)
            with pytest.raises(InvalidPlatformError):
                solve_batch([profile], resources, name)
            return

        outcome = scalar(profile, resources)
        assert outcome.feasible
        assert outcome.solution.is_valid(profile, resources, outcome.period)
        assert outcome.period == outcome.solution.period(profile)
        (batched,) = solve_batch([profile], resources, name)
        assert _facts(batched) == _facts(outcome)
        if name.startswith("2catac"):
            twin = "2catac" if name == "2catac_memo" else "2catac_memo"
            assert _facts(get_strategy(twin)(profile, resources)) == _facts(
                outcome
            )
        else:
            assert _facts(_first_fit_oracle(name, profile, resources)) == _facts(
                outcome
            )

    @pytest.mark.parametrize(
        "row",
        _EDGE_ORACLE["rows"],
        ids=lambda row: f"{row['strategy']}-{row['case']}",
    )
    def test_every_call_shape_equals_the_frozen_outcome(self, row):
        """Scalar and ``solve_batch``: period bits, usage and stage list as
        the parent commit answered (2CATAC rows cover the plain walk, the
        memoised walk and the batch map)."""
        rows, replicable, resources = _EDGE_CORPUS[row["case"]]
        profile = ChainProfile(TaskChain.from_weight_matrix(rows, replicable))
        name = row["strategy"]
        shapes = (
            lambda: get_strategy(name)(profile, resources),
            lambda: solve_batch([profile], resources, name)[0],
        )
        for shape in shapes:
            if "refused" in row:
                with pytest.raises(InvalidPlatformError):
                    shape()
                continue
            outcome = shape()
            stages = [
                [s.start, s.end, s.cores, int(s.core_type)]
                for s in outcome.solution.stages
            ]
            usage = [
                sum(c for _, _, c, v in stages if v == t)
                for t in range(len(resources.counts))
            ]
            assert outcome.period.hex() == row["period"]
            assert usage == row["usage"]
            assert stages == row["stages"]

    @pytest.mark.parametrize("memoize", (False, True), ids=("plain", "memo"))
    def test_twocatac_recursion_refusal_on_both_walks(self, memoize):
        """One type with cores keeps the plain walk's exploration a line, so
        the refusal comes from depth, not from ``k^n`` branches."""
        depth = sys.getrecursionlimit() + 200
        deep = ChainProfile(fully_sequential_chain(depth))
        with pytest.raises(InvalidChainError, match="recursion limit"):
            twocatac(deep, Resources(depth, 0), memoize=memoize)

    def test_zero_weight_is_refused_at_the_chain(self):
        with pytest.raises(InvalidChainError):
            TaskChain.from_weights([1.0, 0.0], [2.0, 1.0], [True, False])


class TestParentParity:
    def test_twocatac_outcomes_agree_across_paths(self):
        """Scalar, memoised scalar and ``solve_batch``: one ``ScheduleOutcome``."""
        config = GeneratorConfig(num_tasks=20, stateless_ratio=0.5)
        profiles = [ChainProfile(c) for c in chain_batch(8, config, seed=11)]
        for resources in SIMULATION_BUDGETS:
            plain = [_facts(get_strategy("2catac")(p, resources)) for p in profiles]
            memo = [
                _facts(get_strategy("2catac_memo")(p, resources)) for p in profiles
            ]
            assert plain == memo
            for name in ("2catac", "2catac_memo"):
                batch = solve_batch(profiles, resources, name)
                assert [_facts(o) for o in batch] == plain

    def test_first_fit_outcomes_equal_the_object_oracle(self):
        config = GeneratorConfig(num_tasks=20, stateless_ratio=0.5)
        profiles = [ChainProfile(c) for c in chain_batch(8, config, seed=11)]
        for resources in SIMULATION_BUDGETS:
            for name in ("fertac", "otac_b", "otac_l"):
                for profile in profiles:
                    assert _facts(get_strategy(name)(profile, resources)) == _facts(
                        _first_fit_oracle(name, profile, resources)
                    )

    def test_campaign_counters_equal_the_parent_commit(self):
        """A 3-chain Table I (27 cells x 5 strategies) does exactly the work
        it did before the probe: the literals are the parent commit's, but
        for ``packing.compute_stage_calls``, which since campaigns solve
        2CATAC on the memoised walk also counts its stage probes:
        3247 (FERTAC) + 1358 (OTAC B) + 1395 (OTAC L) = the parent's 6000,
        plus 17392 for 2CATAC (each strategy solved alone on the same
        cells)."""
        with CampaignEngine(
            jobs=1, memo=False, obs=ObsConfig(metrics=True)
        ) as engine:
            table1.run(num_chains=3, seed=0, jobs=1, engine=engine)
            counters = engine.obs.metrics.counters()
        assert counters["solve.count"] == 27 * len(PAPER_ORDER)
        assert counters["packing.compute_stage_calls"] == 6000 + 17392
        assert counters["binary_search.iterations"] == 773
        assert counters["binary_search.calls"] == 108
        assert counters["herad.calls"] == 27
        assert counters["herad.dp_cells"] == 54999
