"""Deadline-bounded incremental rescheduling with a degradation ladder.

On every platform or workload change the simulator asks
:class:`IncrementalScheduler` for a decision on every live chain.  A round
costs what changed: each chain carries its *standing* decision, so a chain
whose instance did not move is one comparison, and the platform split is
recomputed only when the available counts or a kept chain changed.
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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..core.binary_search import ScheduleOutcome
from ..core.bounds import period_bounds
from ..core.certify import certify_outcome, certify_solution, optimality_bracket
from ..core.chain_stats import ChainProfile
from ..core.errors import CertificationError
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
    """A registered chain and its last known schedule.

    ``standing`` is the decision the next round repeats if nothing about
    the chain moves: the ``keep`` form of its schedule (same counts, period
    and triplets, cost 0), or its ``shed`` decision (``counts == ()``).
    """

    chain: TaskChain
    profile: ChainProfile
    seq: int
    load: float
    revision: int = 0
    outcome: "ScheduleOutcome | None" = None
    solved_revision: int = -1
    standing: "ChainDecision | None" = None


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
        # Insertion order is arrival order: admit appends, mutate replaces
        # in place, and a departed name that returns gets a new seq.
        self._records: "dict[str, ChainRecord]" = {}
        self._admitted: int = 0
        # The last platform split and what it was computed from.
        self._split_key: object = None
        self._split: "tuple[tuple[int, ...], ...]" = ()

    # -- workload registration ----------------------------------------------

    @property
    def chains(self) -> "tuple[str, ...]":
        """Names of every registered chain, in arrival order."""
        return tuple(self._records)

    def admit(self, chain: TaskChain) -> None:
        """Register an arriving chain (scheduled on the next round)."""
        if chain.name in self._records:
            raise ValueError(f"chain {chain.name!r} is already registered")
        profile = ChainProfile(chain)
        self._records[chain.name] = ChainRecord(
            chain=chain,
            profile=profile,
            seq=self._admitted,
            load=profile.total_weight(0),
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
        record.load = record.profile.total_weight(0)
        record.revision += 1

    def schedule_of(self, name: str) -> "ScheduleOutcome | None":
        """The chain's current schedule (``None`` when shed/unscheduled)."""
        return self._records[name].outcome

    # -- allocation ----------------------------------------------------------

    def _allocate(
        self, kept: "list[ChainRecord]", available: Resources
    ) -> "tuple[tuple[int, ...], ...]":
        """Proportional-share split of the available budget across chains.

        Largest-remainder apportionment on type-0 load per type, then a
        min-one-core fix-up so every kept chain can hold at least a
        single-stage schedule.  Deterministic: ``kept`` is in arrival
        order, so every tie (stable sort, first maximum) resolves by it.
        """
        ktype = available.ktype
        loads = [record.load for record in kept]
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
            owed = [-(q - b) for q, b in zip(quotas, base)]
            order = sorted(range(len(kept)), key=owed.__getitem__)
            for i in order[:spare]:
                base[i] += 1
            for i, b in enumerate(base):
                counts[i][v] = b
        # Min-one-core fix-up: donate from the richest chain (earliest on
        # ties), taking from its most-allocated type.
        totals = [sum(c) for c in counts]
        for i, c in enumerate(counts):
            if totals[i] == 0:
                donor = totals.index(max(totals))
                if totals[donor] <= 1:
                    break  # cannot happen when len(kept) <= total cores
                v = counts[donor].index(max(counts[donor]))
                counts[donor][v] -= 1
                totals[donor] -= 1
                c[v] += 1
                totals[i] += 1
        return tuple(tuple(c) for c in counts)

    # -- the ladder ----------------------------------------------------------

    def reschedule(self, available: Resources) -> "tuple[ChainDecision, ...]":
        """Produce a feasible decision for every registered chain.

        Returns one :class:`ChainDecision` per chain in arrival order;
        every chain is either scheduled (with a certified-feasible
        solution) or explicitly shed.  Never raises on capacity loss.
        """
        ordered = list(self._records.values())
        if not ordered:
            return ()
        kept = ordered[: available.total]
        key = (available.counts, [(r.seq, r.revision) for r in kept])
        if key != self._split_key:
            self._split_key = key
            self._split = self._allocate(kept, available) if kept else ()
        decisions: "list[ChainDecision]" = []
        budget = float("inf") if self.deadline is None else self.deadline
        keeps = 0
        for record, counts in zip(kept, self._split):
            standing = record.standing
            # Rung 1: same allocation, same weights — the schedule stands.
            if (
                standing is not None
                and standing.counts == counts
                and record.solved_revision == record.revision
            ):
                decisions.append(standing)
                keeps += 1
            else:
                decision, budget = self._ladder(record, counts, budget)
                decisions.append(decision)
        beyond = ordered[len(kept):]
        decisions.extend(self._shed(record) for record in beyond)
        # keep and shed are counted once per round, not once per chain.
        if keeps:
            self.metrics.add("sim.resched.keep", keeps)
        if beyond:
            self.metrics.add("sim.resched.shed", len(beyond))
        return tuple(decisions)

    def _ladder(
        self, record: ChainRecord, counts: "tuple[int, ...]", budget: float
    ) -> "tuple[ChainDecision, float]":
        """Rungs 2-5 for a chain whose allocation or weights changed."""
        allocation = Resources.from_counts(counts)

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
        self.metrics.add("sim.resched.shed")
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
        decision = ChainDecision(
            name=record.chain.name,
            action=action,
            counts=counts,
            period=outcome.period,
            triplets=_triplets_of(outcome),
            cost=cost,
        )
        record.outcome = outcome
        record.solved_revision = record.revision
        record.standing = replace(decision, action="keep", cost=0.0)
        self.metrics.add(f"sim.resched.{action}")
        return decision

    def _shed(self, record: ChainRecord) -> ChainDecision:
        """The chain's shed decision (the caller counts it)."""
        standing = record.standing
        if standing is None or standing.action != "shed":
            record.outcome = None
            record.solved_revision = -1
            record.standing = standing = ChainDecision(
                name=record.chain.name,
                action="shed",
                counts=(),
                period=None,
                triplets=(),
                cost=0.0,
            )
        return standing

    # -- replay --------------------------------------------------------------

    def apply_decision(self, decision: ChainDecision, context: str) -> None:
        """Apply a journaled decision without re-solving (resume replay).

        Rebuilds the chain's schedule and standing decision from the
        recorded triplets and advances the ladder counters exactly as the
        live run did, so a resumed simulation continues bitwise.  A journal
        is input, not memory: each rebuilt schedule is certified against
        its chain and the decision's own core counts, its recorded period
        included, before it is adopted.

        Raises:
            CertificationError: when the schedule fails its certificate
                (the message starts with ``context``, the journal line).
        """
        record = self._records[decision.name]
        self.metrics.add(f"sim.resched.{decision.action}")
        if decision.action == "shed":
            self._shed(record)
            return
        solution = Solution.from_triplets(decision.triplets)
        allocation = Resources.from_counts(decision.counts)
        if decision.period is None:
            raise CertificationError(f"{context}: {decision.name} has no period")
        certify_solution(
            solution,
            record.profile,
            allocation,
            claimed_period=decision.period,
            context=f"{context}: {decision.name}",
        )
        record.outcome = ScheduleOutcome(
            solution=solution,
            period=decision.period,
            iterations=0,
            bounds=period_bounds(record.profile, allocation),
            probes=(),
        )
        record.solved_revision = record.revision
        record.standing = replace(decision, action="keep", cost=0.0)
