"""Cost-adaptive planner: determinism, wall targeting, batch grouping.

The planner's contract (:mod:`repro.engine.plan`): a *pure* function of
``(pending, jobs, cost snapshot, unit wall)`` whose
groups partition every pending cell exactly once — results can therefore
never depend on the plan, only wall time can (the engine's bitwise parity
across job counts is pinned separately in ``test_scaling.py``).
"""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidParameterError
from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import CampaignEngine
from repro.engine.batch import PendingInstance
from repro.obs import ObsConfig
from repro.engine.plan import (
    _MIN_SPLIT_ROWS,
    DEFAULT_UNIT_WALL_S,
    AdaptiveCostModel,
    plan_units,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def _pending(count=12, strategies=("a", "b"), num_tasks=6):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=0.5)
    chains = list(chain_batch(count, config, seed=0))
    return [
        PendingInstance(index=i, chain=chain, strategies=tuple(strategies))
        for i, chain in enumerate(chains)
    ]


def _strategy(group):
    (name,) = {name for item in group for name in item.strategies}
    return name


def _cells(groups):
    return [
        (item.index, name)
        for group in groups
        for item in group
        for name in item.strategies
    ]


class TestPlanDeterminism:
    def test_same_inputs_same_plan(self):
        pending = _pending()
        snapshot = (("a", 0.004), ("b", 0.001))
        first = plan_units(pending, jobs=4, cost_snapshot=snapshot)
        second = plan_units(pending, jobs=4, cost_snapshot=snapshot)
        assert first == second

    def test_every_cell_planned_exactly_once(self):
        pending = _pending(count=17, strategies=("a", "b", "c"))
        for unit_wall in (DEFAULT_UNIT_WALL_S, 5e-3, 1e-9):
            groups = plan_units(pending, jobs=3, unit_wall=unit_wall)
            cells = _cells(groups)
            assert sorted(cells) == sorted(
                (item.index, name)
                for item in pending
                for name in item.strategies
            )
            assert len(cells) == len(set(cells))

    def test_cost_snapshot_changes_plan_not_cells(self):
        pending = _pending(count=20)
        cheap = plan_units(pending, jobs=2, cost_snapshot=(("a", 1e-5),))
        costly = plan_units(pending, jobs=2, cost_snapshot=(("a", 1.0),))
        assert sorted(_cells(cheap)) == sorted(_cells(costly))


class TestWallTargeting:
    def test_costly_cells_make_smaller_units(self):
        pending = _pending(count=16, strategies=("a",))
        small = plan_units(
            pending, jobs=1, cost_snapshot=(("a", DEFAULT_UNIT_WALL_S),)
        )
        # Each cell alone reaches the wall: one instance per unit.
        assert all(len(group) == 1 for group in small)
        # Cells that fit the wall together stay one whole batch.
        assert plan_units(pending, jobs=1, cost_snapshot=(("a", 1e-9),)) == [
            tuple(pending)
        ]

    def test_over_wall_batch_is_cut_evenly(self):
        pending = _pending(count=11, strategies=("a",))
        # 0.03 s cells: three fit the 0.1 s wall, so 11 rows need 4 units.
        groups = plan_units(pending, jobs=1, cost_snapshot=(("a", 0.03),))
        assert [len(g) for g in groups] == [3, 3, 3, 2]
        assert [item.index for g in groups for item in g] == list(range(11))

    def test_table_campaign_plans_one_unit_per_strategy(self):
        pending = _pending(count=10, strategies=PAPER_ORDER)
        groups = plan_units(pending, jobs=2)
        assert [_strategy(g) for g in groups] == list(PAPER_ORDER)
        assert all(len(g) == 10 for g in groups)

    def test_small_campaign_still_fans_out(self):
        """Fewer units than workers: only the costliest unit is halved, and
        never into pieces below the HeRAD kernel's row floor."""
        rows = 2 * _MIN_SPLIT_ROWS
        pending = _pending(count=rows, strategies=("a", "b"), num_tasks=3)
        snapshot = (("a", 1e-4), ("b", 2e-4))
        groups = plan_units(pending, jobs=3, cost_snapshot=snapshot)
        assert [(_strategy(g), len(g)) for g in groups] == [
            ("a", rows), ("b", _MIN_SPLIT_ROWS), ("b", _MIN_SPLIT_ROWS)
        ]
        # One more worker halves the now-costliest unit, "a"...
        groups = plan_units(pending, jobs=4, cost_snapshot=snapshot)
        assert sorted(len(g) for g in groups) == [_MIN_SPLIT_ROWS] * 4
        # ...and then the floor stops it, however many workers idle.
        assert plan_units(pending, jobs=16, cost_snapshot=snapshot) == groups
        short = pending[: rows - 1]
        groups = plan_units(short, jobs=16, cost_snapshot=snapshot)
        assert [len(g) for g in groups] == [rows - 1, rows - 1]

    def test_dispatch_order_is_longest_first_and_stable(self):
        pending = _pending(count=7, strategies=("a", "b", "c", "d"))
        snapshot = (("a", 0.002), ("b", 0.06), ("c", 0.002), ("d", 0.005))
        costs = dict(snapshot)
        groups = plan_units(pending, jobs=2, cost_snapshot=snapshot)
        estimates = [costs[_strategy(g)] * len(g) for g in groups]
        assert estimates == sorted(estimates, reverse=True)
        # "b" is over the wall (7 x 0.06 s): cut into one-row units, first.
        assert [_strategy(g) for g in groups] == ["b"] * 7 + ["d", "a", "c"]
        assert [g[0].index for g in groups[:7]] == list(range(7))

    def test_invalid_parameters_rejected(self):
        pending = _pending(count=2)
        with pytest.raises(InvalidParameterError):
            plan_units(pending, jobs=1, unit_wall=0.0)

    def test_empty_pending_empty_plan(self):
        assert plan_units([], jobs=4) == []


class TestBatchGrouping:
    def test_batch_kernel_units_are_single_strategy(self):
        pending = _pending(count=9, strategies=("a", "b"))
        # Walls that cut "a" (and pack across strategies, if a planner
        # concatenated the cell lists) as well as walls that cut nothing.
        for unit_wall in (DEFAULT_UNIT_WALL_S, 7e-3, 1e-9):
            groups = plan_units(pending, jobs=2, unit_wall=unit_wall)
            for group in groups:
                names = {name for item in group for name in item.strategies}
                assert len(names) == 1  # one solve_batch shard per unit
            # Equal estimates: first-appearance order, "a" units before "b".
            order = [_strategy(g) for g in groups]
            assert order == sorted(order, key=("a", "b").index)


class TestAdaptiveCostModel:
    def test_prior_then_ewma_fold(self):
        model = AdaptiveCostModel()
        prior = model.cell_cost("a")
        assert prior > 0
        model.observe_unit({"a": 4}, seconds=0.4)  # 0.1 s per cell
        first = model.cell_cost("a")
        assert first == pytest.approx(0.1)
        model.observe_unit({"a": 4}, seconds=0.2)  # 0.05 s per cell
        second = model.cell_cost("a")
        assert 0.05 < second < first  # EWMA, not replacement

    def test_apportions_by_current_estimates(self):
        model = AdaptiveCostModel()
        model.feed_sketch("slow", 0.09)
        model.feed_sketch("fast", 0.01)
        model.observe_unit({"slow": 1, "fast": 1}, seconds=0.1)
        assert model.cell_cost("slow") > model.cell_cost("fast")

    def test_ignores_degenerate_observations(self):
        model = AdaptiveCostModel()
        model.observe_unit({}, seconds=1.0)
        model.observe_unit({"a": 1}, seconds=0.0)
        model.feed_sketch("a", 0.0)
        assert model.snapshot() == ()

    def test_snapshot_is_sorted_and_frozen(self):
        model = AdaptiveCostModel()
        model.feed_sketch("b", 0.2)
        model.feed_sketch("a", 0.1)
        snapshot = model.snapshot()
        assert snapshot == (("a", 0.1), ("b", 0.2))
        assert isinstance(snapshot, tuple)


class TestCampaignFeedback:
    def test_sketch_feedback_moves_the_cost_model(self):
        """A metrics-enabled campaign feeds each strategy's
        ``solve.seconds`` sketch back into the planner's cost model."""
        config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
        chains = list(chain_batch(6, config, seed=0))
        engine = CampaignEngine(jobs=1, memo=False, obs=ObsConfig(metrics=True))
        assert engine._cost_model.snapshot() == ()
        engine.solve_instances(chains, Resources(3, 3), PAPER_ORDER)
        costs = dict(engine._cost_model.snapshot())
        assert set(costs) == set(PAPER_ORDER)
        for name in PAPER_ORDER:
            sketch = engine.obs.metrics.sketch(f"solve.seconds.{name}")
            assert sketch is not None and sketch.count == 1  # one group
        # The serial unit's wall alone is apportioned by equal priors, which
        # would leave every strategy at one cost; the sketches tell them apart.
        assert len(set(costs.values())) > 1
