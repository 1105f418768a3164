"""Chunked work units for the campaign engine.

The unit of distribution is a *chunk* of scheduling instances, not a single
instance: one chain costs milliseconds to schedule, so per-instance dispatch
would drown in executor overhead.  A :class:`WorkUnit` carries a slice of the
campaign — ``(chain index, chain, strategies still to run)`` triples plus the
shared budget — and :func:`solve_unit` resolves it into indexed
:class:`SolvedCell` rows.  Every cell is audited by the independent
certificate checker (:mod:`repro.core.certify`) before its row is recorded.

Everything here is picklable with module-level functions only, so the same
code path runs in-process (serial tier) and in worker processes (process
tier).  A unit's rows travel home inside its pickled :class:`UnitOutcome`
— the engine's one result transport.  Results are keyed by chain index,
which makes assembly order-independent: however the executor interleaves
chunks, the final arrays are bitwise identical.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from ..core.binary_search import ScheduleOutcome
from ..core.certify import certify_outcome
from ..core.chain_stats import ChainProfile
from ..core.registry import get_info, solve_batch
from ..core.task import TaskChain
from ..core.types import Resources
from ..obs.clock import monotonic
from ..obs.context import ObsConfig, ObsPayload, activate, current
from ..obs.metrics import MetricsLike
from .checkpoint import Stages
from .memo import InstanceResult

__all__ = [
    "PendingInstance",
    "SolvedCell",
    "WorkUnit",
    "UnitResult",
    "UnitOutcome",
    "solve_unit",
    "units_from_groups",
]


@dataclass(frozen=True, slots=True)
class PendingInstance:
    """One chain still needing one or more strategy solves.

    Attributes:
        index: the chain's position in its campaign (result-array row).
        chain: the chain itself (small: tens of tasks).
        strategies: canonical names of the strategies left to run on it.
    """

    index: int
    chain: TaskChain
    strategies: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """A chunk of pending instances sharing one platform budget.

    Attributes:
        pending: the instances in this chunk.
        resources: the shared platform budget.
        journal: the engine journals this unit's rows, so each cell ships
            its stage list home (:attr:`SolvedCell.stages`; left empty
            otherwise — the arrays and the memo never read it).
        tier: the execution tier running this chunk (``serial`` /
            ``process``), recorded on its spans and worker attribution.
        obs: observability switches for this chunk (``None`` = fully off).
            When set, the worker builds a local tracer/metrics context,
            records into it, and ships the resulting payload home in its
            :class:`UnitOutcome` — the only channel observability data has
            out of a worker process.
        dispatched_at: engine-side :func:`repro.obs.clock.monotonic` stamp
            taken when the unit was chunked for a process pool (``None``
            otherwise).  CLOCK_MONOTONIC is system-wide on Linux, so the
            worker can subtract it from its own clock read on entry to
            measure pool-wait (queueing) time.  Never consulted by the
            result path.
    """

    pending: tuple[PendingInstance, ...]
    resources: Resources
    journal: bool = False
    tier: str = "serial"
    obs: "ObsConfig | None" = None
    dispatched_at: "float | None" = None


class SolvedCell(NamedTuple):
    """One audited ``(chain, strategy)`` cell as it leaves a worker.

    ``result`` is what the memo and the arrays keep; ``stages`` (empty
    unless the unit is journaled) rides only as far as the checkpoint
    journal, so a resumed run can audit the row again.
    """

    result: InstanceResult
    stages: Stages


#: ``(chain index, {strategy: cell})`` rows produced by one unit.
UnitResult = list[tuple[int, dict[str, SolvedCell]]]


@dataclass(frozen=True, slots=True)
class UnitOutcome:
    """Everything one resolved work unit sends back to the engine.

    ``rows`` is the result payload; ``obs`` carries the spans and metric
    snapshot the unit recorded (``None`` when observability was off).
    Results and observations travel together but are consumed on strictly
    separate paths — the engine assembles arrays from ``rows`` only, which
    is what keeps tracing off the result path.

    ``seconds`` is the unit's measured solve wall (sanctioned
    :mod:`repro.obs.clock` read) — the always-on feedback signal of the
    cost-adaptive planner (:mod:`repro.engine.plan`); it steers future
    chunking only, never results.
    """

    rows: UnitResult
    obs: "ObsPayload | None" = None
    seconds: "float | None" = None


def _audited(
    outcome: ScheduleOutcome,
    profile: ChainProfile,
    resources: Resources,
    name: str,
    optimal: bool,
    journal: bool,
) -> SolvedCell:
    """Certify one outcome, then collapse it into its campaign row."""
    # A passing audit holds its re-derived usage equal to the library's.
    usage = certify_outcome(
        outcome,
        profile,
        resources,
        optimal=optimal,
        context=f"{name} on chain {profile.fingerprint}",
    ).usage
    result = InstanceResult(
        period=outcome.period,
        big_used=usage[0],
        little_used=usage[1] if len(usage) > 1 else 0,
        extra_used=usage[2:],
    )
    if not journal:
        return SolvedCell(result, ())
    stages = tuple(
        (stage.start, stage.end, stage.cores, int(stage.core_type))
        for stage in outcome.solution.stages
    )
    return SolvedCell(result, stages)


def _solve_rows(unit: WorkUnit) -> UnitResult:
    """Resolve a unit's instances into index-keyed rows.

    The unit's cells are grouped by strategy (first-appearance order, so
    the obs span sequence is deterministic) and each group goes through one
    :func:`repro.core.registry.solve_batch` call — HeRAD's vectorized kernel,
    2CATAC's memoised walk, the scalar solver mapped over the group
    otherwise; either way the outcomes are bitwise those of the plain
    scalar solvers.  Every solution is audited by the independent checker.

    ``solve.seconds.<strategy>`` is fed here with the group wall divided by
    its instance count: the per-cell cost the RunReport's per-strategy
    histograms read.
    """
    profiles = [ChainProfile(item.chain) for item in unit.pending]
    obs = current()
    by_strategy: dict[str, list[int]] = {}
    results: list[dict[str, SolvedCell]] = [{} for _ in unit.pending]
    for position, item in enumerate(unit.pending):
        for name in item.strategies:
            by_strategy.setdefault(name, []).append(position)

    for name, members in by_strategy.items():
        with obs.span(
            "solve_batch",
            "solve",
            strategy=name,
            tier=unit.tier,
            instances=len(members),
        ):
            start = monotonic()
            _solve_group(unit, name, members, profiles, results)
            obs.metrics.observe(
                f"solve.seconds.{name}", (monotonic() - start) / len(members)
            )
            obs.metrics.add("solve.count", len(members))

    return [
        (item.index, results[position])
        for position, item in enumerate(unit.pending)
    ]


def _solve_group(
    unit: WorkUnit,
    name: str,
    members: "list[int]",
    profiles: "list[ChainProfile]",
    results: "list[dict[str, SolvedCell]]",
) -> None:
    """Solve one strategy's group of a unit and record its rows."""
    info = get_info(name)
    group = [profiles[position] for position in members]
    outcomes = solve_batch(group, unit.resources, name)
    metrics = current().metrics
    for position, outcome in zip(members, outcomes):
        cell = _audited(
            outcome,
            profiles[position],
            unit.resources,
            name,
            info.optimal,
            unit.journal,
        )
        # Deterministic observation stream: the multiset of solved periods
        # is identical across tiers and plans (bitwise-identical results),
        # so its sketch merges bitwise-identically too.
        metrics.observe(f"solve.period.{name}", cell.result.period)
        results[position][name] = cell


def _attribute_worker_costs(
    unit: WorkUnit, rows: UnitResult, arrived: float, metrics: "MetricsLike"
) -> None:
    """Record process-tier cost attribution under the ``worker.*`` namespace.

    Everything here is keyed by the worker's pid and measured on wall
    clocks, so it is inherently tier- and run-dependent: ``worker.*`` is the
    one metric namespace exempt from the cross-tier counter-parity guarantee
    (DESIGN.md §15).  The pickle costs are measured by re-serializing the
    unit and its rows with the same protocol the pool uses — the bytes
    counted are the bytes the IPC channel actually carried, the seconds are
    a faithful re-run of the same work.
    """
    pid = os.getpid()
    prefix = f"worker.{pid}"
    metrics.add(f"{prefix}.units")
    if unit.dispatched_at is not None:
        wait = max(0.0, arrived - unit.dispatched_at)
        metrics.add(f"{prefix}.pool_wait.seconds", wait)
        metrics.observe("worker.pool_wait.seconds", wait)
    start = monotonic()
    bytes_in = len(pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL))
    seconds_in = monotonic() - start
    start = monotonic()
    bytes_out = len(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
    seconds_out = monotonic() - start
    metrics.add(f"{prefix}.pickle.bytes_in", bytes_in)
    metrics.add(f"{prefix}.pickle.bytes_out", bytes_out)
    metrics.add(f"{prefix}.pickle.seconds_in", seconds_in)
    metrics.add(f"{prefix}.pickle.seconds_out", seconds_out)
    metrics.observe("worker.pickle.seconds", seconds_in + seconds_out)


def solve_unit(unit: WorkUnit) -> UnitOutcome:
    """Resolve one work unit (the process-pool entry point).

    Resolves the unit's cells through :func:`_solve_rows`.  With
    observability enabled on the unit, a fresh local context is built and
    activated for the duration — worker processes have no access to the
    engine's tracer, and in-process units deliberately use the same
    ship-a-payload-home protocol so both tiers aggregate identically.

    Process-tier units with metrics enabled additionally attribute their
    IPC costs (pool wait, pickle bytes/seconds in and out) to the worker's
    pid before the payload ships home — see :func:`_attribute_worker_costs`.

    The unit's measured solve wall rides along as planner feedback.
    """
    arrived = monotonic()
    if unit.obs is None or not unit.obs.enabled:
        rows = _solve_rows(unit)
        return UnitOutcome(rows=rows, seconds=monotonic() - arrived)
    context = unit.obs.create_context()
    with activate(context):
        with context.span(
            "unit", "engine", tier=unit.tier, instances=len(unit.pending)
        ):
            rows = _solve_rows(unit)
        solved_at = monotonic()
        if unit.tier == "process" and context.metrics.enabled:
            _attribute_worker_costs(unit, rows, arrived, context.metrics)
    return UnitOutcome(
        rows=rows, obs=context.payload(), seconds=solved_at - arrived
    )


def units_from_groups(
    groups: Sequence[tuple[PendingInstance, ...]],
    resources: Resources,
    tier: str = "serial",
    obs: "ObsConfig | None" = None,
    journal: bool = False,
) -> list[WorkUnit]:
    """Materialize planner groups (:func:`repro.engine.plan.plan_units`)
    into work units.

    Process-tier units built with metrics enabled carry a ``dispatched_at``
    monotonic stamp so workers can attribute the dispatch-to-start (pool
    queueing) latency of each unit.
    """
    dispatched_at = (
        monotonic()
        if tier == "process" and obs is not None and obs.metrics
        else None
    )
    return [
        WorkUnit(
            pending=group,
            resources=resources,
            journal=journal,
            tier=tier,
            obs=obs,
            dispatched_at=dispatched_at,
        )
        for group in groups
    ]
