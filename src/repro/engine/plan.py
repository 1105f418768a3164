"""Cost-adaptive work-unit planning: whole strategy batches, cut only by cost.

A work unit is one strategy's batch of cells — one maximal
:func:`repro.core.registry.solve_batch` call.  The HeRAD batch kernel
amortises its per-call cost over the rows it is handed (3.8 -> 2.5 ms per
row from 8 to 32 rows), so a unit is cut only when its *estimated wall* —
per-strategy cell costs learned from earlier units — exceeds the unit wall
(:data:`DEFAULT_UNIT_WALL_S`), past which a straggler unit would serialize
the campaign tail.  This is the divisible-load rule of sizing an
installment against its measured fixed cost (Gallet–Robert–Vivien): a load
split finer than that cost justifies finishes later than one not split.

Determinism is load-bearing: :func:`plan_units` is a pure function of the
pending instances, a frozen cost snapshot, and the job count.  The engine
snapshots its :class:`AdaptiveCostModel` once per campaign, so the plan is
computed entirely up front; and because result rows are keyed by chain index
and strategies are pure functions, the assembled arrays are bitwise
identical for *any* plan — cost feedback can only change wall time, never
results (``tests/engine/test_plan.py``, ``tests/engine/test_scaling.py``).

The model has one input: the always-on per-unit wall measurements
(:attr:`repro.engine.batch.UnitOutcome.seconds`, read off the sanctioned
:mod:`repro.obs.clock`).  Observability never feeds it, so the plan does not
depend on whether metrics are recorded.
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

#: Rows below which the HeRAD batch kernel's per-row cost has not yet
#: flattened (20-task chains, (10B,10L), ms per row at B = 8 / 16 / 32 / 64:
#: 3.8 / 3.0 / 2.5 / 2.5; every other strategy is a per-row map with no
#: batch effect): the planner never halves a unit into pieces smaller than
#: this just to occupy a worker.
_MIN_SPLIT_ROWS: int = 32


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


def _even_split(
    cells: Sequence[PendingInstance], parts: int
) -> list[tuple[PendingInstance, ...]]:
    """Cut ``cells`` into ``parts`` contiguous runs whose sizes differ by <= 1."""
    cuts = [-(-len(cells) * part // parts) for part in range(parts + 1)]
    return [tuple(cells[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def plan_units(
    pending: Sequence[PendingInstance],
    *,
    jobs: int,
    cost_snapshot: "tuple[tuple[str, float], ...]" = (),
    unit_wall: float = DEFAULT_UNIT_WALL_S,
) -> list[tuple[PendingInstance, ...]]:
    """Split pending instances into work-unit groups, deterministically.

    A pure function: the same ``(pending, jobs, cost_snapshot, unit_wall)``
    always yields the same plan, and every cell of every instance appears
    in exactly one group.

    Each strategy's cells are planned on their own, so a unit is one
    contiguous ``solve_batch`` shard and never straddles two strategies.  A
    strategy's batch stays whole unless its estimated wall exceeds
    ``unit_wall``; then it is cut evenly into the fewest units that each fit
    the wall.  Only a plan with fewer units than workers halves its
    costliest unit, and never into pieces below :data:`_MIN_SPLIT_ROWS`.

    Groups come back in dispatch order: longest estimated wall first (ties
    keep first-appearance order), so a pool's shared queue does
    longest-processing-time-first list scheduling.
    """
    if unit_wall <= 0.0:
        raise InvalidParameterError(
            f"unit_wall must be > 0 seconds, got {unit_wall}"
        )
    cells_by_strategy: dict[str, list[PendingInstance]] = {}
    for item in pending:
        for name in item.strategies:
            cells_by_strategy.setdefault(name, []).append(
                PendingInstance(
                    index=item.index, chain=item.chain, strategies=(name,)
                )
            )

    costs = dict(cost_snapshot)
    units: list[tuple[float, tuple[PendingInstance, ...]]] = []
    for name, cells in cells_by_strategy.items():
        cost = costs.get(name, _PRIOR_CELL_COST_S)
        rows_per_unit = max(1, int(unit_wall / cost))
        parts = -(-len(cells) // rows_per_unit)
        units.extend(
            (cost * len(group), group) for group in _even_split(cells, parts)
        )

    while 0 < len(units) < jobs:
        position = max(range(len(units)), key=lambda i: units[i][0])
        estimate, group = units[position]
        if len(group) < 2 * _MIN_SPLIT_ROWS:
            break
        units[position : position + 1] = [
            (estimate * len(half) / len(group), half)
            for half in _even_split(group, 2)
        ]

    units.sort(key=lambda unit: -unit[0])
    return [group for _, group in units]
