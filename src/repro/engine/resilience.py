"""The campaign dispatch loop: unit rounds, then a cell rung that quarantines.

Every campaign — lean or hardened, ``--jobs 1`` or ``--jobs N`` — runs
through :func:`dispatch`, one loop in two phases:

* **Unit rounds** — every work unit is solved whole by
  :func:`~repro.engine.batch.solve_unit` on its tier: in-process for
  ``serial`` units, on the engine's :class:`~repro.engine.pool.WorkerPool`
  for ``process`` ones.  Each outcome is yielded as soon as its unit
  completes, so the engine harvests (and the journal commits, once per unit)
  while the rest still solve.  A unit that fails with a transient error is
  retried in the next round, after a deterministic backoff, up to
  :attr:`ResilienceConfig.attempts` rounds.  On the process tier each round
  has a soft deadline derived from :attr:`ResilienceConfig.timeout`: units
  still running are abandoned (their pool is dropped without waiting) and
  retried.  The serial tier cannot preempt a running solve, so deadlines
  are a pooled-tier guarantee.
* **The cell rung** — only the units a round could not finish are re-run
  cell by cell in-process, each ``(chain, strategy)`` cell a one-cell unit
  through the same :func:`~repro.engine.batch.solve_unit`, so a failure is
  isolated to its cell.  A cell that keeps failing is *quarantined* as a
  structured :class:`FailureRecord` and the campaign continues; its result
  cells keep the engine's sentinel values (``NaN`` period, ``-1`` cores).
  Leaving the process tier for this rung counts as one degradation.

The lean path (no :class:`ResilienceConfig`) is the same loop with one
attempt whose first failure is raised, never held: fail-fast.

Classification is the heart of the policy: :func:`is_transient` separates
environment failures (worth retrying) from deterministic solver errors
(retrying re-executes the same pure function on the same input — useless, so
they skip to the cell rung, and from it to quarantine).
``KeyboardInterrupt`` and other ``BaseException`` escalations are *never*
absorbed: completed units are flushed first, then the interrupt propagates
so journals keep every finished chunk.

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
    as_completed,
)
from dataclasses import dataclass, field, replace
from typing import Generator, Iterator, Sequence

from ..core.errors import CertificationError, InvalidParameterError
from ..obs.context import ObsConfig, Observability
from .batch import UnitOutcome, WorkUnit, solve_unit
from .pool import WorkerPool

_log = logging.getLogger(__name__)

__all__ = [
    "ResilienceConfig",
    "FailureRecord",
    "ResilienceReport",
    "is_transient",
    "dispatch",
]

#: Failure types worth retrying: environment/IPC trouble and certificate
#: rejections (a corrupt *claim* may come from a sick worker —
#: re-deriving on a clean tier either recovers or quarantines with evidence).
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    BrokenExecutor,
    FuturesTimeoutError,
    TimeoutError,
    pickle.PicklingError,
    pickle.UnpicklingError,
    EOFError,
    ConnectionError,
    CertificationError,
)

#: Backoff before the first retry, in seconds; doubles per later retry.
BASE_DELAY = 0.05
#: Backoff ceiling, in seconds.
MAX_DELAY = 2.0
#: Fraction of each delay that is jittered (0.5 keeps delays in
#: ``[0.5 d, d)``).  Jitter is derived from :data:`SEED` and the retry
#: token via SHA-256 — bitwise reproducible, no global RNG.
JITTER = 0.5
#: Jitter seed.
SEED = 0


def is_transient(exc: BaseException) -> bool:
    """Whether a failure is worth retrying (vs a deterministic solver error).

    Deterministic errors — ``InvalidChainError``, ``InfeasibleScheduleError``,
    and friends — re-raise identically on every attempt because strategies are
    pure functions of their input, so they skip the retry budget entirely.
    """
    return isinstance(exc, _TRANSIENT_TYPES)


def _backoff(retry: int, token: str = "") -> float:
    """Delay before the ``retry``-th retry (0-based) of ``token``, in seconds.

    Read from the module constants at each call, so tests patch them (a
    zero :data:`BASE_DELAY` makes every retry immediate).
    """
    raw = min(MAX_DELAY, BASE_DELAY * (2.0**retry))
    if raw <= 0 or JITTER == 0:
        return raw
    digest = hashlib.sha256(f"{SEED}:{token}:{retry}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0**64
    return raw * (1.0 - JITTER + JITTER * unit)


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """What ``--retries`` and ``--timeout`` set.

    Attributes:
        attempts: unit rounds, and then attempts per cell on the cell rung
            (1 = no retries).
        timeout: soft deadline in seconds for one work unit on the process
            tier (``None`` disables).  Each round waits
            ``timeout * ceil(units / workers)`` so queued units are not
            charged for time spent waiting behind others.
    """

    attempts: int = 3
    timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise InvalidParameterError(
                f"attempts must be >= 1, got {self.attempts}"
            )
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
        attempts: total solve attempts, unit rounds and cell rung together.
        tier: the tier the instance was quarantined on (always ``serial`` —
            quarantine is the cell rung's verdict).
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
    """Mutable per-unit attempt bookkeeping threaded through the loop."""

    unit: WorkUnit
    attempts: int = 0


def dispatch(
    units: "Sequence[WorkUnit]",
    jobs: int,
    pool: WorkerPool,
    config: "ResilienceConfig | None",
    report: ResilienceReport,
) -> Iterator[UnitOutcome]:
    """Solve work units in rounds on their tier, then cell by cell.

    Yields one :class:`~repro.engine.batch.UnitOutcome` per unit as it
    finishes (order is arbitrary; rows are index-keyed, so assembly stays
    bitwise deterministic).  Without ``config`` there is one round and its
    first failure is raised, leaving ``report`` empty.  With it, recovery
    is counted in ``report``, and quarantined instances appear there and
    are simply absent from the yielded rows.

    Process-tier units borrow their executor from ``pool`` (the engine's
    :class:`~repro.engine.pool.WorkerPool`): a clean round leaves it alive
    for the next round or campaign, a dirty one discards it.
    """
    attempts = 1 if config is None else config.attempts
    pooled = bool(units) and units[0].tier == "process"
    pending = [_Tracked(unit=unit) for unit in units]
    held: list[_Tracked] = []
    for attempt in range(attempts):
        if not pending:
            break
        if attempt:
            time.sleep(_backoff(attempt - 1, token=units[0].tier))
        if pooled:
            failed = yield from _pooled_round(pending, jobs, pool, config, report)
        else:
            failed = yield from _serial_round(pending, config)
        pending = []
        for t, exc in failed:
            if is_transient(exc):
                report.retries += 1
                pending.append(t)
            else:
                # Deterministic: another round is useless; the cell rung
                # isolates it to its cell.
                held.append(t)
    held += pending
    if held:
        if pooled:
            report.degradations += 1
            _log.info("degrading %d work unit(s) below the process tier", len(held))
        yield from _cell_rung(held, attempts, report)


def _serial_round(
    pending: "list[_Tracked]", config: "ResilienceConfig | None"
) -> "Generator[UnitOutcome, None, list[tuple[_Tracked, Exception]]]":
    """One in-process attempt at every pending unit; returns the failures."""
    failed: list[tuple[_Tracked, Exception]] = []
    for t in pending:
        t.attempts += 1
        try:
            outcome = solve_unit(t.unit)
        except Exception as exc:
            if config is None:
                raise
            failed.append((t, exc))
            _log.debug(
                "%s on serial unit (attempt %d)", type(exc).__name__, t.attempts
            )
            continue
        yield outcome
    return failed


def _pooled_round(
    pending: "list[_Tracked]",
    jobs: int,
    pool: WorkerPool,
    config: "ResilienceConfig | None",
    report: ResilienceReport,
) -> "Generator[UnitOutcome, None, list[tuple[_Tracked, Exception]]]":
    """One attempt at every pending unit on the pool; returns the failures.

    Outcomes are yielded in completion order and each future is dropped
    once handled, so the round holds no outcome the engine has been given.
    """
    failed: list[tuple[_Tracked, Exception]] = []
    deadline = None
    if config is not None and config.timeout is not None:
        deadline = config.timeout * -(-len(pending) // min(jobs, len(pending)))
    with pool.lease(jobs) as executor:
        running: dict[Future[UnitOutcome], _Tracked] = {
            executor.submit(solve_unit, t.unit): t for t in pending
        }
        # An escalating BaseException (Ctrl-C in a worker) is raised only
        # after every other unit of the round is flushed, so the journal
        # keeps each finished chunk.
        escalation: "BaseException | None" = None
        broken = False
        for future in _completed(list(running), deadline):
            t = running.pop(future)
            t.attempts += 1
            exc = future.exception()
            if exc is None:
                yield future.result()
            elif not isinstance(exc, Exception):
                escalation = escalation or exc
            elif config is None:
                raise exc
            else:
                broken = broken or isinstance(exc, BrokenExecutor)
                failed.append((t, exc))
                _log.debug(
                    "%s on process unit (attempt %d)", type(exc).__name__, t.attempts
                )
        # What is still running missed the soft deadline.
        for future, t in running.items():
            future.cancel()
            t.attempts += 1
            report.timeouts += 1
            failed.append((t, FuturesTimeoutError("soft deadline")))
        if escalation is not None:
            raise escalation
        # The next round (or campaign) must inherit neither hung workers
        # nor a broken executor, which accepts no more work; a broken one
        # has no live worker left, so it is safe to join.
        if running:
            pool.close(wait=False)
        elif broken:
            pool.close()
    return failed


def _completed(
    futures: "list[Future[UnitOutcome]]", deadline: "float | None"
) -> "Iterator[Future[UnitOutcome]]":
    """``futures`` as they complete, until all have or ``deadline`` passes."""
    try:
        yield from as_completed(futures, timeout=deadline)
    except FuturesTimeoutError:
        return


def _cell_rung(
    tracked: "list[_Tracked]", attempts: int, report: ResilienceReport
) -> Iterator[UnitOutcome]:
    """Last rung: solve cell by cell, quarantining what still fails.

    Each ``(chain, strategy)`` cell is a one-cell unit solved by
    :func:`~repro.engine.batch.solve_unit`, the entry point of every round,
    so a failure stays in its cell and a solved cell's rows and
    observability payload are the ones a whole unit ships (its trace has
    one ``unit`` span per cell).  A unit's cells come home as one outcome,
    so the journal still commits once per unit.
    """
    for t in tracked:
        solved: list[UnitOutcome] = []
        for item in t.unit.pending:
            for name in item.strategies:
                cell = replace(
                    t.unit,
                    pending=(replace(item, strategies=(name,)),),
                    tier="serial",
                )
                outcome = _solve_or_quarantine(cell, t, attempts, report)
                if outcome is not None:
                    solved.append(outcome)
        yield _merged(solved, t.unit.obs)


def _merged(outcomes: "list[UnitOutcome]", cfg: "ObsConfig | None") -> UnitOutcome:
    """The outcomes of one unit's cells as one outcome of that unit.

    Each cell traced into a fresh tracer, so span ids repeat from cell to
    cell; absorbing every cell's payload as its own forest renumbers them,
    as the engine does for pooled payloads.
    """
    rows = [row for outcome in outcomes for row in outcome.rows]
    if cfg is None or not cfg.enabled:
        return UnitOutcome(rows=rows)
    merged = Observability(cfg)
    for outcome in outcomes:
        merged.absorb(outcome.obs)
    return UnitOutcome(rows=rows, obs=merged.context().payload())


def _solve_or_quarantine(
    cell: WorkUnit,
    t: _Tracked,
    attempts: int,
    report: ResilienceReport,
) -> "UnitOutcome | None":
    """Solve a one-cell unit with retries; quarantine it if it still fails."""
    (item,) = cell.pending
    (name,) = item.strategies
    failure: "Exception | None" = None
    tries = 0
    for attempt in range(attempts):
        if attempt:
            time.sleep(_backoff(attempt - 1, token=f"serial:{item.index}:{name}"))
        tries += 1
        try:
            return solve_unit(cell)
        except Exception as exc:
            failure = exc
            if not is_transient(exc):
                break
            report.retries += 1
            _log.debug(
                "transient %s for chain %d / %s on the cell rung "
                "(attempt %d); retrying",
                type(exc).__name__,
                item.index,
                name,
                tries,
            )
    assert failure is not None
    report.quarantined += 1
    report.failures.append(
        FailureRecord(
            index=item.index,
            fingerprint=item.chain.fingerprint,
            strategy=name,
            error_type=type(failure).__name__,
            message=str(failure),
            attempts=t.attempts + tries,
            tier="serial",
        )
    )
    _log.warning(
        "quarantined chain %d / %s after %d attempt(s): %s: %s",
        item.index,
        name,
        t.attempts + tries,
        type(failure).__name__,
        failure,
    )
    return None
