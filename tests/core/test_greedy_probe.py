"""The integer greedy probe (``repro.core.packing.probe_stage``) and the
walks built on it, held to the object-level oracle in ``oracle_packing.py``.

Four contracts:

1. plan for plan, the probe is the pre-probe ``ComputeStage`` + ``stage_fits``
   (hypothesis, edge weights included);
2. hoisting the guards out of the inner loop lost no typed refusal;
3. an edge corpus solves identically on both call shapes (scalar and
   ``solve_batch``) and, for the first-fit strategies, identically to the
   object-building oracle driven through the generic bisection path;
4. outcomes and work counters are the ones recorded at the parent commit.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_packing import oracle_compute_stage, oracle_first_fit, oracle_stage_fits
from test_chain_stats import _profiles  # edge weights: subnormal, duplicates, ~2**53
from tests.chain_shapes import fully_sequential_chain

from repro.core.binary_search import schedule_by_binary_search
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
from repro.core.twocatac import twocatac, twocatac_compute_solution
from repro.core.types import CoreType, Resources
from repro.engine import CampaignEngine
from repro.experiments import table1
from repro.obs import ObsConfig
from repro.platform.presets import SIMULATION_BUDGETS
from repro.workloads.synthetic import GeneratorConfig, chain_batch

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


_GREEDY = ("fertac", "otac_b", "otac_l", "2catac", "2catac_memo")

_BIG = 2.0**53
_EDGE_CORPUS = {
    "n=1 sequential": ([[7.0], [9.0]], [False], Resources(2, 2)),
    "n=1 replicable": ([[7.0], [9.0]], [True], Resources(2, 3)),
    "all sequential": (
        [[3, 9, 2, 7, 5, 1], [6, 11, 9, 8, 5, 4]], [False] * 6, Resources(3, 3)
    ),
    "all replicable": (
        [[3, 9, 2, 7, 5, 1], [6, 11, 9, 8, 5, 4]], [True] * 6, Resources(3, 3)
    ),
    "duplicate weights": (
        [[4.0] * 7, [4.0] * 7],
        [True, False, True, True, False, True, True],
        Resources(2, 4),
    ),
    "subnormal weights": (
        [[5e-324, 1.0, 5e-324, 2.0, 5e-324], [5e-324, 3.0, 1e-300, 2.0, 5e-324]],
        [True, True, False, True, True],
        Resources(2, 2),
    ),
    "near 2^53": (
        [
            [_BIG - 1, 1.0, _BIG, 3.0, _BIG + 2, 1.0],
            [_BIG + 2, 2.0, _BIG + 2, 5.0, _BIG + 4, 1.0],
        ],
        [True, True, False, True, True, False],
        Resources(4, 4),
    ),
    "no big cores": (
        [[3, 9, 2, 7, 5], [6, 11, 9, 8, 5]],
        [True, False, True, True, False],
        Resources(0, 4),
    ),
    "no little cores": (
        [[3, 9, 2, 7, 5], [6, 11, 9, 8, 5]],
        [True, False, True, True, False],
        Resources(4, 0),
    ),
    "k=3 identical classes": (
        [[3, 9, 2, 7, 5, 4]] * 3,
        [True, True, False, True, True, False],
        Resources.from_counts((2, 2, 2)),
    ),
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
