"""Failure recovery for campaign execution: retries, timeouts, quarantine.

The campaign protocol (Table I and the figure sweeps) is a long
embarrassingly-parallel run; without this module, one crashed worker, one
pathological instance that wedges a solver, or one unpicklable object aborts
the whole campaign and discards every finished result.  This module makes the
fan-out *resilient*:

* **Retry with deterministic backoff** — transient failures (a broken process
  pool, pickling/IPC errors, injected faults, a failed certificate audit that
  may stem from worker memory corruption) are retried up to
  :attr:`RetryPolicy.max_attempts` times per tier, with exponential backoff
  and *seeded* jitter (hash-derived, never ``random``: the engine's
  determinism lint forbids entropy in solver paths).
* **Soft deadlines** — on the process tier each dispatch round gets a
  deadline derived from :attr:`ResilienceConfig.timeout`; units still running
  are abandoned (their pool is shut down without waiting) and retried.  The
  serial tier cannot preempt a running solve — deadlines are a pooled-tier
  guarantee.
* **Graceful degradation** — a work unit that keeps failing on the process
  tier is re-run instance-by-instance on the serial tier, where failures are
  isolated to single ``(chain, strategy)`` cells.
* **Quarantine** — an instance that still fails serially is recorded as a
  structured :class:`FailureRecord` and the campaign continues; its result
  cells keep the engine's sentinel values (``NaN`` period, ``-1`` cores).

Classification is the heart of the policy: :func:`is_transient` separates
environment failures (worth retrying) from deterministic solver errors
(retrying re-executes the same pure function on the same input — useless, so
they go straight to quarantine).  ``KeyboardInterrupt`` and other
``BaseException`` escalations are *never* absorbed: completed batches are
flushed first, then the interrupt propagates so journals keep every finished
chunk.

This module is the project's single sanctioned broad-catch site: lint rule
REP109 forbids bare ``except:`` / ``except BaseException`` everywhere else.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Generator, Iterator, Sequence

from ..core.chain_stats import ChainProfile
from ..core.errors import CertificationError, InvalidParameterError
from ..obs.context import activate
from .batch import (
    SolvedCell,
    UnitOutcome,
    UnitResult,
    WorkUnit,
    solve_instance,
    solve_unit,
)
from .faults import InjectedFault
from .pool import WorkerPool

_log = logging.getLogger(__name__)

__all__ = [
    "TIERS",
    "RetryPolicy",
    "ResilienceConfig",
    "FailureRecord",
    "ResilienceReport",
    "is_transient",
    "execute_with_resilience",
]

#: Degradation ladder, most parallel first.
TIERS: tuple[str, ...] = ("process", "serial")

#: Failure types worth retrying: environment/IPC trouble, injected transients,
#: and certificate rejections (a corrupt *claim* may come from a sick worker —
#: re-deriving on a clean tier either recovers or quarantines with evidence).
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    BrokenExecutor,
    FuturesTimeoutError,
    TimeoutError,
    pickle.PicklingError,
    pickle.UnpicklingError,
    EOFError,
    ConnectionError,
    InjectedFault,
    CertificationError,
)


def is_transient(exc: BaseException) -> bool:
    """Whether a failure is worth retrying (vs a deterministic solver error).

    Deterministic errors — ``InvalidChainError``, ``InfeasibleScheduleError``,
    and friends — re-raise identically on every attempt because strategies are
    pure functions of their input, so they skip the retry budget entirely.
    """
    return isinstance(exc, _TRANSIENT_TYPES)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Per-work-unit retry budget with deterministic exponential backoff.

    Attributes:
        max_attempts: attempts per tier (1 = no retries).
        base_delay: backoff before the first retry, in seconds; doubles per
            subsequent retry.
        max_delay: backoff ceiling, in seconds.
        jitter: fraction of each delay that is jittered (0 disables; 0.5
            keeps delays in ``[0.5 d, d)``).  Jitter is derived from
            ``seed`` and the retry token via SHA-256 — bitwise reproducible,
            no global RNG.
        seed: jitter seed.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise InvalidParameterError(
                "backoff delays must be >= 0, got "
                f"base={self.base_delay}, max={self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise InvalidParameterError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, retry: int, token: str = "") -> float:
        """Backoff before the ``retry``-th retry (0-based), in seconds."""
        raw = min(self.max_delay, self.base_delay * (2.0**retry))
        if raw <= 0 or self.jitter == 0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{token}:{retry}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        return raw * (1.0 - self.jitter + self.jitter * unit)


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Knobs of the recovery machinery.

    Attributes:
        retry: the per-tier retry budget and backoff schedule.
        timeout: soft deadline in seconds for one work unit on the process
            tier (``None`` disables).  Each dispatch round waits
            ``timeout * ceil(units / workers)`` so queued units are not
            charged for time spent waiting behind others.
    """

    retry: RetryPolicy = field(default=RetryPolicy())
    timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise InvalidParameterError(
                f"timeout must be > 0 seconds, got {self.timeout}"
            )


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One quarantined ``(chain, strategy)`` instance.

    Attributes:
        index: the chain's row in its campaign arrays (those cells keep the
            sentinel values: ``NaN`` period, ``-1`` core counts).
        fingerprint: the chain's content fingerprint (replayable identity).
        strategy: canonical strategy name of the failed solve.
        error_type: class name of the final exception.
        message: its message.
        attempts: total solve attempts across every tier.
        tier: the tier the instance was quarantined on (always ``serial`` —
            quarantine is the ladder's last rung).
    """

    index: int
    fingerprint: str
    strategy: str
    error_type: str
    message: str
    attempts: int
    tier: str


@dataclass(slots=True)
class ResilienceReport:
    """Counters and quarantine records of one campaign execution.

    Attributes:
        retries: transient failures that were retried.
        timeouts: work-unit attempts abandoned at the soft deadline.
        degradations: tier switches taken with unfinished work.
        quarantined: instances that exhausted every recovery path.
        failures: one :class:`FailureRecord` per quarantined instance.
    """

    retries: int = 0
    timeouts: int = 0
    degradations: int = 0
    quarantined: int = 0
    failures: list[FailureRecord] = field(default_factory=list)


@dataclass(slots=True)
class _Tracked:
    """Mutable per-unit retry bookkeeping threaded through the ladder."""

    unit: WorkUnit
    attempts: int = 0


def execute_with_resilience(
    units: "Sequence[WorkUnit]",
    jobs: int,
    config: ResilienceConfig,
    report: ResilienceReport,
    pool: WorkerPool,
) -> Iterator[UnitOutcome]:
    """Run work units through the retry/degradation/quarantine ladder.

    Yields completed :class:`~repro.engine.batch.UnitOutcome` batches as
    they finish (order is arbitrary; rows are index-keyed, so assembly stays
    bitwise deterministic).  Quarantined instances appear in ``report`` and
    are simply absent from the yielded rows.

    Process-tier units borrow their executor from ``pool`` (the engine's
    :class:`~repro.engine.pool.WorkerPool`): a clean round leaves it alive
    for the next round or campaign, a dirty one discards it.
    """
    tracked = [_Tracked(unit=unit) for unit in units]
    start = units[0].tier if units else "serial"
    if start not in TIERS:
        raise InvalidParameterError(f"unknown execution tier {start!r}")

    if start == "process":
        tracked = yield from _pooled_pass(tracked, jobs, config, report, pool)
        if tracked:
            report.degradations += 1
            _log.info(
                "degrading %d work unit(s) below the process tier", len(tracked)
            )
    if tracked:
        yield from _serial_pass(tracked, config, report)


def _pooled_pass(
    tracked: "list[_Tracked]",
    jobs: int,
    config: ResilienceConfig,
    report: ResilienceReport,
    pool: WorkerPool,
) -> "Generator[UnitOutcome, None, list[_Tracked]]":
    """The process tier's attempts; returns the units that still fail."""
    policy = config.retry
    pending = list(tracked)
    held: list[_Tracked] = []

    for attempt in range(policy.max_attempts):
        if not pending:
            break
        if attempt:
            time.sleep(policy.delay(attempt - 1, token="process"))
        retry_round: list[_Tracked] = []
        with pool.lease(jobs) as executor:
            futures: list[tuple[Future[UnitOutcome], _Tracked]] = [
                (executor.submit(solve_unit, t.unit), t) for t in pending
            ]
            deadline = None
            if config.timeout is not None:
                rounds = -(-len(pending) // min(jobs, len(pending)))
                deadline = config.timeout * rounds
            done, not_done = wait([f for f, _ in futures], timeout=deadline)

            # Flush every completed batch before touching any failure, so an
            # escalating BaseException (Ctrl-C in a worker) cannot discard
            # finished — and journal-committable — chunks.
            escalation: "BaseException | None" = None
            for future, t in futures:
                if future in not_done:
                    future.cancel()
                    t.attempts += 1
                    report.timeouts += 1
                    report.retries += 1
                    retry_round.append(t)
                    _log.debug(
                        "unit timed out on process tier (attempt %d); retrying",
                        t.attempts,
                    )
                    continue
                exc = future.exception()
                if exc is None:
                    yield future.result()
                elif isinstance(exc, Exception):
                    t.attempts += 1
                    if is_transient(exc):
                        report.retries += 1
                        retry_round.append(t)
                        _log.debug(
                            "transient %s on process tier (attempt %d); retrying",
                            type(exc).__name__,
                            t.attempts,
                        )
                    else:
                        # Deterministic: retrying here is useless; the
                        # serial rung isolates it to its cell.
                        held.append(t)
                elif escalation is None:
                    escalation = exc
            if escalation is not None:
                raise escalation
            # The next round (or campaign) must inherit neither hung
            # workers nor a broken executor, which accepts no more work; a
            # broken one has no live worker left, so it is safe to join.
            if not_done:
                pool.close(wait=False)
            elif any(isinstance(f.exception(), BrokenExecutor) for f in done):
                pool.close()
        pending = retry_round
    return held + pending


def _serial_pass(
    tracked: "list[_Tracked]",
    config: ResilienceConfig,
    report: ResilienceReport,
) -> Iterator[UnitOutcome]:
    """Last rung: solve instance-by-instance, quarantining what still fails.

    Observability mirrors :func:`~repro.engine.batch.solve_unit`: each unit
    gets its own local context (activated for the duration, so the ambient
    hooks inside the solvers record into it) and ships its payload home in
    the yielded outcome — the exact protocol of the pooled tiers, which is
    what makes counter aggregation tier-independent.
    """
    for t in tracked:
        unit = replace(t.unit, tier="serial")
        cfg = unit.obs
        if cfg is not None and cfg.enabled:
            context = cfg.create_context()
            with activate(context):
                with context.span(
                    "unit", "engine", tier="serial", instances=len(unit.pending)
                ):
                    rows = _solve_serially(unit, t, config, report)
            yield UnitOutcome(rows=rows, obs=context.payload())
        else:
            yield UnitOutcome(rows=_solve_serially(unit, t, config, report))


def _solve_serially(
    unit: WorkUnit,
    t: _Tracked,
    config: ResilienceConfig,
    report: ResilienceReport,
) -> UnitResult:
    """Solve one unit instance-by-instance with per-cell retry/quarantine."""
    policy = config.retry
    rows: UnitResult = []
    for item in unit.pending:
        profile = ChainProfile(item.chain)
        results: dict[str, SolvedCell] = {}
        for name in item.strategies:
            solved: "SolvedCell | None" = None
            failure: "Exception | None" = None
            attempts = 0
            for attempt in range(policy.max_attempts):
                if attempt:
                    time.sleep(
                        policy.delay(
                            attempt - 1, token=f"serial:{item.index}:{name}"
                        )
                    )
                attempts += 1
                try:
                    solved = solve_instance(
                        profile,
                        unit.resources,
                        (name,),
                        faults=unit.faults,
                        tier="serial",
                        journal=unit.journal,
                    )[name]
                    break
                except Exception as exc:
                    failure = exc
                    if not is_transient(exc):
                        break
                    report.retries += 1
                    _log.debug(
                        "transient %s for chain %d / %s on serial tier "
                        "(attempt %d); retrying",
                        type(exc).__name__,
                        item.index,
                        name,
                        attempts,
                    )
            if solved is not None:
                results[name] = solved
            else:
                assert failure is not None
                report.quarantined += 1
                report.failures.append(
                    FailureRecord(
                        index=item.index,
                        fingerprint=profile.fingerprint,
                        strategy=name,
                        error_type=type(failure).__name__,
                        message=str(failure),
                        attempts=t.attempts + attempts,
                        tier="serial",
                    )
                )
                _log.warning(
                    "quarantined chain %d / %s after %d attempt(s): %s: %s",
                    item.index,
                    name,
                    t.attempts + attempts,
                    type(failure).__name__,
                    failure,
                )
        rows.append((item.index, results))
    return rows
