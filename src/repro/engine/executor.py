"""The campaign execution engine: fan-out + memoized solves.

The paper's evaluation protocol is embarrassingly parallel — every
``(chain, budget, strategy)`` instance is independent — yet the original
driver solved them in one Python loop.  :class:`CampaignEngine` runs the
instances on one of two tiers, chosen by the job count alone:

* ``jobs == 1`` — the ``serial`` tier: an in-process loop, zero executor
  overhead;
* ``jobs > 1`` — the ``process`` tier: a ``ProcessPoolExecutor`` over
  whole-strategy work units, the one that scales CPU-bound pure-Python
  solves across cores (threads do not: the solvers hold the GIL).

Both tiers run the one dispatch loop of :mod:`repro.engine.resilience`,
which resolves :class:`~repro.engine.batch.WorkUnit` chunks into
index-keyed rows — pickled home from workers, the only result transport —
and yields each unit's outcome as soon as it completes, so assembly is
order-independent and the engine's output is **bitwise
identical for every job count** — a regression-tested guarantee
(``tests/engine/test_engine.py``).

The process tier uses one :class:`~repro.engine.pool.WorkerPool` per
engine: workers spawn on the first pooled dispatch and serve every later
campaign until :meth:`CampaignEngine.close` or a dirty round retires them.

A :class:`~repro.engine.memo.MemoCache` — the engine's only cache — sits in
front of the fan-out: instances whose ``(chain fingerprint, budget,
strategy)`` key was already solved are replayed without being dispatched.
The default process-wide engine shares one cache, which makes figure
drivers that re-run the Table I campaign (Fig. 1, ablations, ``repro
all``) nearly free after the first pass.

Two optional layers harden long campaigns (DESIGN.md §9):

* **Resilience** (``resilience=``): the dispatch loop gets more than one
  attempt.  Units that fail transiently — broken process pools,
  pickling/IPC errors, soft-deadline timeouts, failed audits — are
  retried whole with deterministic backoff; only the units no round
  finished are re-solved cell by cell in-process, and cells that still
  fail are *quarantined* as
  :class:`~repro.engine.resilience.FailureRecord` rows (their array cells
  keep NaN/-1 sentinels) instead of aborting the run.  Without it the
  first failure aborts the campaign.
* **Checkpointing** (``journal=``): every solved instance is appended to a
  crash-safe JSONL journal (fsync'd per work unit); re-running with the same
  journal audits the finished instances again, replays them through the
  memo cache and solves only the remainder, bitwise identically.

Every solved instance is audited by the independent certificate checker
(:mod:`repro.core.certify`) in the worker that solved it; memo hits are
trusted, because the memo only ever holds audited outcomes.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..core.chain_stats import ChainProfile
from ..core.errors import InvalidParameterError
from ..core.registry import get_info
from ..core.task import TaskChain
from ..core.types import Resources
from ..obs.clock import monotonic
from ..obs.context import NULL_OBSERVABILITY, Observability, ObsConfig, activate
from .batch import PendingInstance, UnitOutcome, units_from_groups
from .checkpoint import CheckpointJournal
from .memo import InstanceResult, MemoCache, MemoKey, make_key
from .plan import DEFAULT_UNIT_WALL_S, AdaptiveCostModel, plan_units
from .pool import WorkerPool
from .resilience import (
    FailureRecord,
    ResilienceConfig,
    ResilienceReport,
    dispatch,
)

__all__ = [
    "resolve_jobs",
    "StrategyArrays",
    "CampaignEngine",
    "default_engine",
    "reset_default_engine",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means all available cores."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    return jobs


class StrategyArrays(NamedTuple):
    """Per-strategy campaign outcome columns (one row per chain)."""

    periods: np.ndarray
    big_used: np.ndarray
    little_used: np.ndarray


class CampaignEngine:
    """Executes campaigns of scheduling instances with fan-out + memoization.

    Args:
        jobs: default worker count (``None``: ``os.cpu_count()``).  Overridable
            per call.  One job solves in-process; more run on the engine's
            process pool.
        memo: a shared :class:`MemoCache`, ``True`` for a private cache, or
            ``False``/``None`` to disable memoization.
        resilience: a :class:`~repro.engine.resilience.ResilienceConfig`
            enabling retries, soft deadlines, the cell rung and quarantine.
            ``None`` keeps the lean fail-fast path: one attempt, where any
            solver exception aborts the campaign.
        journal: a :class:`~repro.engine.checkpoint.CheckpointJournal` (or a
            path) recording every solved instance; the rows of an existing
            journal are audited and replayed through the memo cache before
            solving, which is how ``--resume`` works.  A journal implies an
            instance cache: if memoization was disabled, a private cache is
            created for replay.
        obs: observability surface.  Accepts a live
            :class:`~repro.obs.context.Observability`, an
            :class:`~repro.obs.context.ObsConfig`, ``True`` (tracing and
            metrics both on), or ``None``/``False`` for the default
            zero-overhead no-op implementation.  Spans and counters are
            recorded *about* the campaign, never consulted by it — results
            are bitwise identical with observability on or off (tested).

    An engine that dispatched to the process tier holds live workers: call
    :meth:`close` (or use the engine as a context manager) when done with
    it.  A closed engine stays usable — the next pooled dispatch spawns a
    fresh pool.
    """

    def __init__(
        self,
        jobs: int | None = None,
        memo: "MemoCache | bool | None" = True,
        resilience: "ResilienceConfig | None" = None,
        journal: "CheckpointJournal | str | Path | None" = None,
        obs: "Observability | ObsConfig | bool | None" = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self._cost_model = AdaptiveCostModel()
        self._pool = WorkerPool()
        if memo is True:
            self.memo: MemoCache | None = MemoCache()
        elif memo is False or memo is None:
            self.memo = None
        else:
            self.memo = memo
        self.resilience = resilience
        if journal is None or isinstance(journal, CheckpointJournal):
            self.journal: CheckpointJournal | None = journal
        else:
            self.journal = CheckpointJournal(journal)
        if self.journal is not None and self.memo is None:
            self.memo = MemoCache()
        if isinstance(obs, Observability):
            self.obs = obs
        elif isinstance(obs, ObsConfig):
            self.obs = Observability(obs)
        elif obs is True:
            self.obs = Observability(ObsConfig(trace=True, metrics=True))
        else:
            self.obs = NULL_OBSERVABILITY
        self._last_report: ResilienceReport | None = None
        self._all_failures: list[FailureRecord] = []

    def close(self) -> None:
        """Retire the engine's worker pool (idempotent; the engine stays usable)."""
        self._pool.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- campaign execution --------------------------------------------------

    def solve_instances(
        self,
        chains: Sequence[TaskChain],
        resources: Resources,
        strategies: Iterable[str],
        jobs: int | None = None,
    ) -> dict[str, StrategyArrays]:
        """Solve every ``(chain, strategy)`` instance at one budget.

        Returns one :class:`StrategyArrays` per canonical strategy name, with
        row ``i`` holding chain ``i``'s outcome — independent of job count
        and cache state.

        Every solution is audited by the independent certificate checker
        (:mod:`repro.core.certify`) as it is produced, and every journaled
        row before it is replayed; a failed audit raises
        :class:`~repro.core.errors.CertificationError` (or, with resilience
        on, quarantines a solved cell).

        Cells are pre-filled with sentinels (``NaN`` period, ``-1`` cores) so
        an aborted or quarantining campaign can never hand callers
        uninitialized ``np.empty`` garbage: a cell either holds a solved
        result or is visibly unsolved.
        """
        chains = list(chains)
        names = [get_info(name).name for name in strategies]
        count = len(chains)
        arrays = {
            name: StrategyArrays(
                periods=np.full(count, np.nan),
                big_used=np.full(count, -1, dtype=np.int64),
                little_used=np.full(count, -1, dtype=np.int64),
            )
            for name in names
        }
        self._last_report = None
        with activate(self.obs.context()), self.obs.span(
            "campaign", "campaign", chains=count, strategies=len(names)
        ):
            with self.obs.span("memo.fill", "memo"):
                pending = self._fill_from_memo(chains, resources, names, arrays)
            if pending:
                effective_jobs = self.jobs if jobs is None else resolve_jobs(jobs)
                outcomes = self._execute(pending, resources, effective_jobs)
                try:
                    for outcome in outcomes:
                        self.obs.absorb(outcome.obs)
                        self._feed_cost_model(outcome)
                        solved: list[tuple[MemoKey, InstanceResult]] = []
                        for index, cells in outcome.rows:
                            chain = chains[index]
                            for name, (result, stages) in cells.items():
                                self._store(arrays, index, name, result)
                                key = make_key(chain, resources, name)
                                solved.append((key, result))
                                if self.journal is not None:
                                    self.journal.record(key, result, stages)
                        if self.memo is not None and solved:
                            # Bulk insert per work unit, same LRU/eviction
                            # behavior as per-key puts.
                            self.memo.put_many(solved)
                        if self.journal is not None:
                            with self.obs.span("journal.commit", "journal"):
                                self.journal.commit()
                finally:
                    # An interrupt mid-campaign must not lose finished
                    # chunks, and an abandoned campaign must never leak a
                    # pool: closing the suspended generator runs its
                    # cleanup now.
                    outcomes.close()
                    if self.journal is not None:
                        self.journal.commit()
        return arrays

    @property
    def last_report(self) -> "ResilienceReport | None":
        """Recovery counters of the most recent resilient execution."""
        return self._last_report

    @property
    def failures(self) -> tuple[FailureRecord, ...]:
        """Every instance quarantined by this engine (across campaigns)."""
        return tuple(self._all_failures)

    def clear_failures(self) -> None:
        """Forget accumulated quarantine records (e.g. between experiments)."""
        self._all_failures.clear()

    def _fill_from_memo(
        self,
        chains: Sequence[TaskChain],
        resources: Resources,
        names: Sequence[str],
        arrays: dict[str, StrategyArrays],
    ) -> list[PendingInstance]:
        """Replay cached instances into ``arrays``; return what's left.

        The journal's rows for this campaign's keys are audited and put in
        the memo first.  The whole campaign is then looked up in one
        :meth:`~repro.engine.memo.MemoCache.get_many` call instead of
        ``chains x strategies`` of them, with hit and miss counters identical
        to the per-instance lookups it replaced (``tests/engine/test_memo.py``
        pins the equivalence).
        """
        if self.memo is None:
            flat: list["InstanceResult | None"] = [None] * (
                len(chains) * len(names)
            )
        else:
            keys = [
                make_key(chain, resources, name)
                for chain in chains
                for name in names
            ]
            if self.journal is not None:
                owners = (chain for chain in chains for _ in names)
                replayed = self.journal.replay_into(
                    self.memo, zip(keys, owners), resources
                )
                if replayed:
                    self.obs.metrics.add("journal.replayed", replayed)
            flat = self.memo.get_many(keys)
        pending: list[PendingInstance] = []
        hits = 0
        misses = 0
        cursor = 0
        for index, chain in enumerate(chains):
            missing: list[str] = []
            for name in names:
                cached = flat[cursor]
                cursor += 1
                if cached is None:
                    missing.append(name)
                else:
                    self._store(arrays, index, name, cached)
            if missing:
                pending.append(
                    PendingInstance(
                        index=index, chain=chain, strategies=tuple(missing)
                    )
                )
            hits += len(names) - len(missing)
            misses += len(missing)
        if self.memo is not None and self.obs.metrics.enabled:
            if hits:
                self.obs.metrics.add("memo.hits", hits)
            if misses:
                self.obs.metrics.add("memo.misses", misses)
        return pending

    @staticmethod
    def _store(
        arrays: dict[str, StrategyArrays],
        index: int,
        name: str,
        result: InstanceResult,
    ) -> None:
        columns = arrays[name]
        columns.periods[index] = result.period
        columns.big_used[index] = result.big_used
        columns.little_used[index] = result.little_used

    def _execute(
        self,
        pending: list[PendingInstance],
        resources: Resources,
        jobs: int,
    ) -> "Iterator[UnitOutcome]":
        """Run the pending instances on the tier ``jobs`` selects.

        Yields one :class:`~repro.engine.batch.UnitOutcome` per completed
        work unit (the journal fsync granularity), from the one dispatch
        loop of :mod:`repro.engine.resilience`: unit rounds on the tier,
        then — with resilience on — retries, the cell rung and quarantine.
        Without it the loop makes one attempt and raises its first failure
        (fail-fast); either way a dirty round discards the pool with
        ``cancel_futures``, so a Ctrl-C never leaks workers.
        """
        tier = "serial" if jobs == 1 else "process"
        # Cache every fingerprint before anything is dispatched: a process
        # pool's feeder thread pickles a chain's ``__dict__`` while this
        # thread handles earlier outcomes, and a chain sits in one unit per
        # strategy, so a lazy ``chain.fingerprint`` (memo off) would grow
        # that dict mid-pickle.  Workers reuse the cached value.
        for item in pending:
            item.chain.fingerprint
        if tier == "serial" and self.journal is None:
            # Serial fast path: one unit, zero chunk overhead.
            groups = [tuple(pending)]
        else:
            # Looked up per campaign, not bound as a default, so tests can
            # patch the one unit wall.
            groups = plan_units(
                pending,
                jobs=jobs,
                cost_snapshot=self._cost_model.snapshot(),
                unit_wall=DEFAULT_UNIT_WALL_S,
            )
        units = units_from_groups(
            groups, resources,
            tier=tier, obs=self.obs.worker_config(),
            journal=self.journal is not None,
        )

        report = ResilienceReport()
        self._last_report = None if self.resilience is None else report
        try:
            yield from dispatch(units, jobs, self._pool, self.resilience, report)
        finally:
            self._all_failures.extend(report.failures)
            self._absorb_report(report)

    def _feed_cost_model(self, outcome: UnitOutcome) -> None:
        """Fold a unit's measured solve wall into the planner's cost model.

        Estimates steer future chunking only, so this feedback cannot
        affect results.
        """
        if outcome.seconds is not None:
            cells = Counter(
                name for _, results in outcome.rows for name in results
            )
            self._cost_model.observe_unit(cells, outcome.seconds)

    def _absorb_report(self, report: ResilienceReport) -> None:
        """Record a resilient execution's recovery counters as metrics.

        Counted engine-side from the authoritative
        :class:`~repro.engine.resilience.ResilienceReport` rather than from
        worker payloads: payloads of *failed* unit attempts never make it
        home, so these counters are exact regardless of tier or job count.
        """
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        for name, value in (
            ("resilience.retries", report.retries),
            ("resilience.timeouts", report.timeouts),
            ("resilience.degradations", report.degradations),
            ("resilience.quarantined", report.quarantined),
        ):
            if value:
                metrics.add(name, value)

    # -- latency measurement ---------------------------------------------------

    def measure_latency(
        self,
        strategy: str,
        profiles: Sequence[ChainProfile],
        resources: Resources,
    ) -> float:
        """Mean wall seconds per solve of ``strategy`` over ``profiles``.

        Always serial and never memoized: this is the engine's measurement
        path (Figs. 3/4 protocol), where replaying a cache hit would report
        lookup time instead of scheduling time.

        Raises:
            InvalidParameterError: on an empty ``profiles`` sequence (there
                is no mean over zero solves).
        """
        if len(profiles) == 0:
            raise InvalidParameterError(
                "profiles must be a non-empty sequence: a latency mean over "
                "zero solves is undefined"
            )
        func = get_info(strategy).func
        with self.obs.span(
            "measure_latency", "engine", strategy=strategy, solves=len(profiles)
        ):
            start = monotonic()
            for profile in profiles:
                func(profile, resources)
            elapsed = monotonic() - start
        return elapsed / len(profiles)


_DEFAULT_ENGINE: CampaignEngine | None = None


def default_engine() -> CampaignEngine:
    """The process-wide engine (shared memo cache, all-cores default)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = CampaignEngine()
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Drop the process-wide engine (tests; frees its memo cache and pool)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is not None:
        _DEFAULT_ENGINE.close()
    _DEFAULT_ENGINE = None
