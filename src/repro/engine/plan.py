"""Cost-adaptive work-unit planning: size chunks by cost, not by row count.

Fixed-row chunking made the process tier pay dispatch overhead per unit
regardless of how much work a unit held — tiny units drown in IPC, huge
units serialize the campaign tail.  The planner instead targets a fixed
*unit wall* (:data:`DEFAULT_UNIT_WALL_S`): every unit is sized so its
estimated solve time lands near the target, using per-strategy cell costs
learned from earlier units.  This is the divisible-load idea of sizing
installments to communication cost, applied to an embarrassingly-parallel
campaign.

Two properties are load-bearing:

* **Determinism** — :func:`plan_units` is a pure function of the pending
  instances, a frozen cost snapshot, and the job count.  The
  engine snapshots its :class:`AdaptiveCostModel` once per campaign, so the
  plan is computed entirely up front; and because result rows are keyed by
  chain index and strategies are pure functions, the assembled arrays are
  bitwise identical for *any* plan — cost feedback can only change wall
  time, never results (``tests/engine/test_plan.py``,
  ``tests/engine/test_scaling.py``).
* **Strategy grouping** — the planner first explodes instances into
  single-strategy cells and packs units per strategy, so each worker's unit
  is one maximal :func:`repro.core.registry.solve_batch` call; strategy-mixed
  units would fragment the vectorized groups.

The model is fed from two directions: always-on per-unit wall measurements
(:attr:`repro.engine.batch.UnitOutcome.seconds`, read off the sanctioned
:mod:`repro.obs.clock`), and — when engine metrics are enabled — the p50 of
the ``solve.seconds.<strategy>`` quantile sketches, which survive across
campaigns and tiers (DESIGN.md §15).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InvalidParameterError
from .batch import PendingInstance

__all__ = [
    "DEFAULT_UNIT_WALL_S",
    "AdaptiveCostModel",
    "plan_units",
]

#: Target estimated solve seconds per work unit — comfortably above the
#: ~ms-scale dispatch+IPC cost of one unit, low enough that a straggler
#: unit cannot serialize a campaign tail.
DEFAULT_UNIT_WALL_S: float = 0.1

#: Prior per-cell solve seconds before any feedback (a mid-size chain
#: through a registry strategy lands in the low single-digit milliseconds).
_PRIOR_CELL_COST_S: float = 2e-3

#: EWMA smoothing for cost feedback (recent units dominate, noise damped).
_EWMA_ALPHA: float = 0.3

#: Units-per-worker floor the planner keeps when the campaign is too small
#: to fill wall-sized units — the old fixed chunker's load-balance margin.
_UNITS_PER_WORKER: int = 4


class AdaptiveCostModel:
    """Per-strategy cell-cost estimates, updated by exponential averaging.

    Purely advisory: estimates steer unit sizing and nothing else, so a
    wildly wrong estimate costs wall time, never correctness.  Not
    thread-safe (owned and driven by one engine from its campaign loop).
    """

    def __init__(self) -> None:
        self._cost: dict[str, float] = {}

    def cell_cost(self, strategy: str) -> float:
        """Estimated solve seconds for one ``(chain, strategy)`` cell."""
        return self._cost.get(strategy, _PRIOR_CELL_COST_S)

    def observe_unit(self, cells: Mapping[str, int], seconds: float) -> None:
        """Fold one completed unit's measured wall into the estimates.

        The unit's wall covers all its cells, so it is apportioned to
        strategies proportionally to their *current* estimated share — the
        same trick iterative profilers use to split aggregate samples.
        """
        if seconds <= 0.0 or not cells:
            return
        estimated = {
            name: self.cell_cost(name) * count for name, count in cells.items()
        }
        total = sum(estimated.values())
        if total <= 0.0:
            return
        for name, count in cells.items():
            if count < 1:
                continue
            per_cell = (seconds * estimated[name] / total) / count
            self._fold(name, per_cell)

    def feed_sketch(self, strategy: str, p50_seconds: float) -> None:
        """Fold a ``solve.seconds.<strategy>`` sketch median in (PR 9 path)."""
        if p50_seconds > 0.0:
            self._fold(strategy, p50_seconds)

    def _fold(self, strategy: str, per_cell: float) -> None:
        previous = self._cost.get(strategy)
        if previous is None:
            self._cost[strategy] = per_cell
        else:
            self._cost[strategy] = (
                (1.0 - _EWMA_ALPHA) * previous + _EWMA_ALPHA * per_cell
            )

    def snapshot(self) -> tuple[tuple[str, float], ...]:
        """Frozen, ordered view of the estimates (what a plan is built from)."""
        return tuple(sorted(self._cost.items()))


def _instance_cost(
    item: PendingInstance, costs: Mapping[str, float]
) -> float:
    return sum(
        costs.get(name, _PRIOR_CELL_COST_S) for name in item.strategies
    )


def _pack(
    items: Sequence[PendingInstance],
    costs: Mapping[str, float],
    target: float,
) -> list[tuple[PendingInstance, ...]]:
    """Greedy in-order packing: cut a unit once it reaches ``target``."""
    groups: list[tuple[PendingInstance, ...]] = []
    unit: list[PendingInstance] = []
    acc = 0.0
    for item in items:
        unit.append(item)
        acc += _instance_cost(item, costs)
        if acc >= target:
            groups.append(tuple(unit))
            unit = []
            acc = 0.0
    if unit:
        groups.append(tuple(unit))
    return groups


def plan_units(
    pending: Sequence[PendingInstance],
    *,
    jobs: int,
    cost_snapshot: "tuple[tuple[str, float], ...]" = (),
    unit_wall: float = DEFAULT_UNIT_WALL_S,
    chunk_size: "int | None" = None,
) -> list[tuple[PendingInstance, ...]]:
    """Split pending instances into work-unit groups, deterministically.

    A pure function: the same ``(pending, jobs, cost_snapshot, unit_wall,
    chunk_size)`` always yields the same plan, and every cell of every
    instance appears in exactly one group.

    ``chunk_size`` is the explicit fixed-row override (the engine's
    long-standing knob: that many instances per unit, strategies unsplit).
    Otherwise instances are first exploded into single-strategy cells
    grouped by strategy (first-appearance order), so each unit is one
    contiguous ``solve_batch`` shard, and units target ``unit_wall``
    estimated seconds, clamped so a small campaign still fans out into
    ~:data:`_UNITS_PER_WORKER` units per worker.
    """
    if unit_wall <= 0.0:
        raise InvalidParameterError(
            f"unit_wall must be > 0 seconds, got {unit_wall}"
        )
    if chunk_size is not None and chunk_size < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    items = list(pending)
    if not items:
        return []

    if chunk_size is not None:
        return [
            tuple(items[i : i + chunk_size])
            for i in range(0, len(items), chunk_size)
        ]

    cells_by_strategy: dict[str, list[PendingInstance]] = {}
    for item in items:
        for name in item.strategies:
            cells_by_strategy.setdefault(name, []).append(
                PendingInstance(
                    index=item.index, chain=item.chain, strategies=(name,)
                )
            )
    items = [cell for cells in cells_by_strategy.values() for cell in cells]

    costs = dict(cost_snapshot)
    total = sum(_instance_cost(item, costs) for item in items)
    workers = max(1, jobs)
    # Clamp the target so small campaigns still spread across workers: at
    # least ~_UNITS_PER_WORKER units per worker unless units would go
    # sub-instance (packing always keeps >= 1 instance per unit).
    target = min(unit_wall, total / (workers * _UNITS_PER_WORKER))
    target = max(target, 1e-9)
    return _pack(items, costs, target)
