"""Cost-adaptive planner: determinism, wall targeting, batch grouping.

The planner's contract (:mod:`repro.engine.plan`): a *pure* function of
``(pending, jobs, cost snapshot, unit wall, chunk_size)`` whose
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
        for chunk_size in (None, 4):
            groups = plan_units(pending, jobs=3, chunk_size=chunk_size)
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
        large = plan_units(pending, jobs=1, cost_snapshot=(("a", 1e-9),))
        # Near-free cells: the units-per-worker clamp still splits the
        # campaign for load balance, but units hold many instances.
        assert max(len(group) for group in large) > 1

    def test_small_campaign_still_fans_out(self):
        pending = _pending(count=16, strategies=("a",))
        groups = plan_units(
            pending, jobs=4, cost_snapshot=(("a", 1e-9),)
        )
        assert len(groups) >= 4  # ~units-per-worker clamp, not one blob

    def test_chunk_size_override_is_fixed_rows(self):
        pending = _pending(count=10)
        groups = plan_units(pending, jobs=4, chunk_size=4)
        assert [len(g) for g in groups] == [4, 4, 2]
        assert [item.index for g in groups for item in g] == list(range(10))

    def test_invalid_parameters_rejected(self):
        pending = _pending(count=2)
        with pytest.raises(InvalidParameterError):
            plan_units(pending, jobs=1, unit_wall=0.0)
        with pytest.raises(InvalidParameterError):
            plan_units(pending, jobs=1, chunk_size=0)

    def test_empty_pending_empty_plan(self):
        assert plan_units([], jobs=4) == []


class TestBatchGrouping:
    def test_batch_kernel_units_are_single_strategy(self):
        pending = _pending(count=9, strategies=("a", "b"))
        groups = plan_units(pending, jobs=2)
        for group in groups:
            names = {name for item in group for name in item.strategies}
            assert len(names) == 1  # one maximal solve_batch shard per unit
        # First-appearance strategy order: all "a" units precede all "b".
        order = [
            next(iter({n for item in g for n in item.strategies}))
            for g in groups
        ]
        assert order == sorted(order, key=("a", "b").index)

    def test_batch_with_chunk_size_keeps_fixed_rows(self):
        pending = _pending(count=6, strategies=("a", "b"))
        groups = plan_units(pending, jobs=2, chunk_size=3)
        assert [len(g) for g in groups] == [3, 3]


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
