"""Deadline-bounded incremental rescheduling with a degradation ladder.

On every platform or workload change the simulator asks
:class:`IncrementalScheduler` for a fresh assignment of every live chain.
The scheduler's contract mirrors the engine's resilience ladder
(process → serial, :mod:`repro.engine.resilience`): *some* answer
is always produced, and quality degrades in explicit, counted steps:

1. **keep** — nothing about this chain's instance changed (same allocation,
   same weights): the previous schedule stands.  Zero cost.
2. **warm** — re-fit the previous solution's stage structure to the new
   allocation (:func:`repro.core.warmstart.warm_start`).  Accepted only
   when the warm period is within the analytic feasibility upper bound of
   a cold solve (:func:`repro.core.certify.optimality_bracket`) — the
   "no worse than the proven heuristic bound" gate — and, when auditing
   is on, certified by :func:`repro.core.certify.certify_outcome`.
3. **full** — a cold solve through the strategy registry.
4. **reuse** — the last known-feasible schedule, if it still fits the new
   allocation (the platform changed under the chain, but not enough to
   invalidate the old assignment).
5. **shed** — the chain is explicitly dropped from the platform until
   capacity returns.  Shed chains stay registered and are re-admitted in
   arrival order by the next rescheduling round with room for them.

The *rescheduling deadline* is expressed in deterministic modeled cost
units — a warm start costs :data:`WARM_COST`, a cold solve costs the
chain's task count — never in wall-clock time, so a loaded machine cannot
change scheduling decisions (wall-clock rescheduling latency is observed
into histograms by the simulator, but no control flow reads it).  When the
per-event budget runs out, remaining chains degrade to **reuse** or
**shed** instead of solving: the system is never left scheduleless, it is
left *honest* about what it dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.binary_search import ScheduleOutcome
from ..core.bounds import period_bounds
from ..core.certify import certify_outcome, optimality_bracket
from ..core.chain_stats import ChainProfile
from ..core.registry import get_info
from ..core.solution import Solution
from ..core.task import TaskChain
from ..core.types import Resources
from ..core.warmstart import warm_start
from ..obs.metrics import MetricsLike, NullMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.registry import StrategyInfo

__all__ = [
    "WARM_COST",
    "RESCHED_ACTIONS",
    "ChainDecision",
    "ChainRecord",
    "IncrementalScheduler",
]

#: Modeled cost of a warm-start attempt, in deadline units.
WARM_COST: float = 1.0

#: Every action the degradation ladder can take, best first.
RESCHED_ACTIONS: tuple[str, ...] = ("keep", "warm", "full", "reuse", "shed")

#: Relative slack when gating a warm period against the analytic upper
#: bound (the bound and the period come from different float paths).
_BOUND_RTOL: float = 1e-9


@dataclass(frozen=True, slots=True)
class ChainDecision:
    """One chain's outcome of one rescheduling round.

    Attributes:
        name: the chain's name.
        action: ladder rung taken (one of :data:`RESCHED_ACTIONS`).
        counts: per-type cores allocated to the chain (all zero when shed).
        period: achieved period (``None`` when shed).
        triplets: the solution as ``(start, end, cores, type)`` rows
            (empty when shed) — enough to rebuild the schedule on replay.
        cost: modeled deadline units this decision consumed.
    """

    name: str
    action: str
    counts: tuple[int, ...]
    period: "float | None"
    triplets: tuple[tuple[int, int, int, int], ...]
    cost: float


@dataclass(slots=True)
class ChainRecord:
    """A registered chain and its last known schedule."""

    chain: TaskChain
    profile: ChainProfile
    seq: int
    revision: int = 0
    outcome: "ScheduleOutcome | None" = None
    counts: "tuple[int, ...] | None" = None
    solved_revision: int = -1


def _triplets_of(outcome: ScheduleOutcome) -> "tuple[tuple[int, int, int, int], ...]":
    return tuple(
        (stage.start, stage.end, stage.cores, int(stage.core_type))
        for stage in outcome.solution.stages
    )


class IncrementalScheduler:
    """Keeps every live chain feasibly scheduled across platform changes.

    Args:
        strategy: registry name of the cold-solve strategy (must accept any
            budget shape the trace can produce; the default ``2catac``
            does).
        deadline: rescheduling budget per event, in modeled cost units
            (``None`` = unbounded; every chain may cold-solve).
        certify: audit warm-started and cold solutions with the
            independent certificate checker.
        metrics: metrics sink for the ladder counters (deterministic
            values only).
    """

    def __init__(
        self,
        strategy: str = "2catac",
        deadline: "float | None" = None,
        certify: bool = False,
        metrics: "MetricsLike | None" = None,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        self._info: "StrategyInfo" = get_info(strategy)
        self.deadline = deadline
        self.certify = certify
        self.metrics: MetricsLike = metrics if metrics is not None else NullMetrics()
        self._records: "dict[str, ChainRecord]" = {}
        self._admitted: int = 0

    # -- workload registration ----------------------------------------------

    @property
    def chains(self) -> "tuple[str, ...]":
        """Names of every registered chain, in arrival order."""
        ordered = sorted(self._records.values(), key=lambda r: r.seq)
        return tuple(record.chain.name for record in ordered)

    def admit(self, chain: TaskChain) -> None:
        """Register an arriving chain (scheduled on the next round)."""
        if chain.name in self._records:
            raise ValueError(f"chain {chain.name!r} is already registered")
        self._records[chain.name] = ChainRecord(
            chain=chain, profile=ChainProfile(chain), seq=self._admitted
        )
        self._admitted += 1

    def depart(self, name: str) -> None:
        """Remove a departing chain."""
        if name not in self._records:
            raise ValueError(f"chain {name!r} is not registered")
        del self._records[name]

    def mutate(self, chain: TaskChain) -> None:
        """Replace a live chain's weights (matched by name)."""
        record = self._records.get(chain.name)
        if record is None:
            raise ValueError(f"chain {chain.name!r} is not registered")
        record.chain = chain
        record.profile = ChainProfile(chain)
        record.revision += 1

    def schedule_of(self, name: str) -> "ScheduleOutcome | None":
        """The chain's current schedule (``None`` when shed/unscheduled)."""
        return self._records[name].outcome

    # -- allocation ----------------------------------------------------------

    def _allocate(
        self, kept: "list[ChainRecord]", available: Resources
    ) -> "list[list[int]]":
        """Proportional-share split of the available budget across chains.

        Largest-remainder apportionment on type-0 load per type, then a
        min-one-core fix-up so every kept chain can hold at least a
        single-stage schedule.  Deterministic: quotas, remainders, and all
        tie-breaks resolve by arrival order.
        """
        ktype = available.ktype
        loads = [record.profile.total_weight(0) for record in kept]
        total_load = sum(loads)
        shares = [
            load / total_load if total_load > 0 else 1.0 / len(kept)
            for load in loads
        ]
        counts: "list[list[int]]" = [[0] * ktype for _ in kept]
        for v in range(ktype):
            budget = available.count(v)
            quotas = [share * budget for share in shares]
            base = [int(q) for q in quotas]
            spare = budget - sum(base)
            order = sorted(
                range(len(kept)),
                key=lambda i: (-(quotas[i] - base[i]), kept[i].seq),
            )
            for i in order[:spare]:
                base[i] += 1
            for i, b in enumerate(base):
                counts[i][v] = b
        # Min-one-core fix-up: donate from the richest chain (earliest on
        # ties), taking from its most-allocated type.
        for i, c in enumerate(counts):
            while sum(c) == 0:
                donor = max(
                    range(len(kept)),
                    key=lambda j: (sum(counts[j]), -kept[j].seq),
                )
                if sum(counts[donor]) <= 1:
                    break  # cannot happen when len(kept) <= total cores
                v = max(range(ktype), key=lambda t: counts[donor][t])
                counts[donor][v] -= 1
                c[v] += 1
        return counts

    # -- the ladder ----------------------------------------------------------

    def reschedule(self, available: Resources) -> "tuple[ChainDecision, ...]":
        """Produce a feasible decision for every registered chain.

        Returns one :class:`ChainDecision` per chain in arrival order;
        every chain is either scheduled (with a certified-feasible
        solution) or explicitly shed.  Never raises on capacity loss.
        """
        ordered = sorted(self._records.values(), key=lambda r: r.seq)
        if not ordered:
            return ()
        capacity = available.total
        kept = ordered[: min(len(ordered), capacity)]
        shed = ordered[len(kept):]
        decisions: "list[ChainDecision]" = []
        budget = float("inf") if self.deadline is None else self.deadline
        allocations = self._allocate(kept, available) if kept else []
        for record, alloc_counts in zip(kept, allocations):
            allocation = Resources.from_counts(alloc_counts)
            decision, budget = self._ladder(record, allocation, budget)
            decisions.append(decision)
        for record in shed:
            decisions.append(self._shed(record))
        self.metrics.set_gauge("sim.active_chains", float(len(kept)))
        decisions.sort(key=lambda d: self._records[d.name].seq)
        return tuple(decisions)

    def _ladder(
        self, record: ChainRecord, allocation: Resources, budget: float
    ) -> "tuple[ChainDecision, float]":
        counts = allocation.counts
        unchanged = (
            record.outcome is not None
            and record.counts == counts
            and record.solved_revision == record.revision
        )
        if unchanged:
            assert record.outcome is not None
            return self._decide(record, "keep", counts, record.outcome, 0.0), budget

        # Rung 2: warm start from the previous structure.
        if record.outcome is not None and budget >= WARM_COST:
            warm = warm_start(record.outcome, record.profile, allocation)
            if warm is not None and self._within_bound(warm, record, allocation):
                self._audit(warm, record, allocation)
                return (
                    self._decide(record, "warm", counts, warm, WARM_COST),
                    budget - WARM_COST,
                )
            budget -= WARM_COST  # the failed attempt still consumed budget

        # Rung 3: full cold solve.
        full_cost = float(record.profile.n)
        if budget >= full_cost and allocation.total > 0:
            outcome = self._info.func(record.profile, allocation)
            if outcome.feasible:
                self._audit(outcome, record, allocation)
                return (
                    self._decide(record, "full", counts, outcome, full_cost),
                    budget - full_cost,
                )
            budget -= full_cost

        # Rung 4: reuse the last known-feasible schedule if it still fits.
        if (
            record.outcome is not None
            and record.solved_revision == record.revision
            and record.outcome.solution.is_valid(record.profile, allocation)
        ):
            return self._decide(record, "reuse", counts, record.outcome, 0.0), budget

        # Rung 5: explicit shed.
        return self._shed(record), budget

    def _within_bound(
        self, warm: ScheduleOutcome, record: ChainRecord, allocation: Resources
    ) -> bool:
        """The warm-start quality gate: no worse than a cold solve's proven
        feasibility bound."""
        if allocation.total <= 0:
            return False
        _, upper = optimality_bracket(record.profile, allocation)
        return warm.period <= upper * (1.0 + _BOUND_RTOL)

    def _audit(
        self, outcome: ScheduleOutcome, record: ChainRecord, allocation: Resources
    ) -> None:
        if self.certify:
            certify_outcome(
                outcome,
                record.profile,
                allocation,
                optimal=False,
                context=f"sim:{record.chain.name}",
            )

    def _decide(
        self,
        record: ChainRecord,
        action: str,
        counts: "tuple[int, ...]",
        outcome: ScheduleOutcome,
        cost: float,
    ) -> ChainDecision:
        record.outcome = outcome
        record.counts = counts
        record.solved_revision = record.revision
        self.metrics.add(f"sim.resched.{action}")
        return ChainDecision(
            name=record.chain.name,
            action=action,
            counts=counts,
            period=outcome.period,
            triplets=_triplets_of(outcome),
            cost=cost,
        )

    def _shed(self, record: ChainRecord) -> ChainDecision:
        record.outcome = None
        record.counts = None
        record.solved_revision = -1
        self.metrics.add("sim.resched.shed")
        return ChainDecision(
            name=record.chain.name,
            action="shed",
            counts=(),
            period=None,
            triplets=(),
            cost=0.0,
        )

    # -- replay --------------------------------------------------------------

    def apply_decision(self, decision: ChainDecision) -> None:
        """Apply a journaled decision without re-solving (resume replay).

        Rebuilds the chain's schedule from the recorded triplets and
        advances the ladder counters exactly as the live run did, so a
        resumed simulation's metrics are bitwise identical.
        """
        record = self._records[decision.name]
        self.metrics.add(f"sim.resched.{decision.action}")
        if decision.action == "shed":
            record.outcome = None
            record.counts = None
            record.solved_revision = -1
            return
        solution = Solution.from_triplets(decision.triplets)
        assert decision.period is not None
        allocation = Resources.from_counts(decision.counts)
        record.outcome = ScheduleOutcome(
            solution=solution,
            period=decision.period,
            iterations=0,
            bounds=period_bounds(record.profile, allocation),
            probes=(),
        )
        record.counts = decision.counts
        record.solved_revision = record.revision
