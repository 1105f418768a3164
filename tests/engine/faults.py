"""Deterministic fault injection for the engine tests.

The resilience layer (:mod:`repro.engine.resilience`) is only trustworthy if
every one of its recovery paths is *provoked* under test, not just reasoned
about.  A :class:`FaultPlan` is a picklable, deterministic description of
which ``(chain, strategy)`` solves fail, how, and how many times;
:func:`inject_faults` arms it without any engine parameter, through the two
seams the product already has:

* the strategy registry — each strategy a plan can hit is replaced by a
  :class:`_FaultedSolve` wrapper with no batch kernel, so every campaign
  cell of that strategy goes through the wrapper (the registry guarantees
  the scalar map is bitwise the batch kernel's answer);
* the engine's one executor construction site,
  ``repro.engine.pool.ProcessPoolExecutor`` — every pool worker runs
  :func:`_install` as its initializer, so the same wrappers fire in workers
  whatever the start method (``fork``, ``spawn``, ``forkserver``).

Fault kinds (:data:`FAULT_KINDS`):

* ``raise`` — raise :class:`InjectedFault` (a *transient* failure: the retry
  machinery is expected to recover).
* ``bug`` — raise a plain :class:`~repro.core.errors.SchedulingError` (a
  *deterministic* solver failure: retrying is useless, the instance must be
  quarantined).
* ``crash`` — hard-kill the worker with ``os._exit`` (surfaces as
  ``BrokenProcessPool`` on the process tier — the closest reproducible
  stand-in for an OOM-killed or segfaulted worker).
* ``hang`` — sleep for :attr:`FaultSpec.seconds` before solving (exercises
  the soft-deadline path).
* ``corrupt`` — let the solve finish, then tamper with the claimed period
  (scaled by :attr:`FaultSpec.factor`); the worker's audit rejects it with a
  :class:`~repro.core.errors.CertificationError` naming the cell.
* ``interrupt`` — raise :class:`KeyboardInterrupt` (a Ctrl-C mid-campaign;
  the retry machinery must *not* swallow it).

Determinism: a fault fires based only on the chain fingerprint, strategy,
execution tier (``process`` inside a pool worker, ``serial`` otherwise) and a
firing counter — never on wall-clock or entropy.  The counter lives in
``state_dir`` as one file per concrete instance (a byte appended per
firing), so "fail the first N attempts, then succeed" holds even when
attempts land in different worker processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial

from repro.core.binary_search import ScheduleOutcome
from repro.core.errors import InvalidParameterError, SchedulingError
from repro.core.registry import STRATEGIES, StrategyInfo
from repro.engine import pool as pool_mod

#: Recognized fault kinds (see module docstring).
FAULT_KINDS: tuple[str, ...] = (
    "raise",
    "bug",
    "crash",
    "hang",
    "corrupt",
    "interrupt",
)

#: Exit status used by ``crash`` faults (distinctive in worker post-mortems).
CRASH_EXIT_CODE: int = 13


class InjectedFault(ConnectionError):
    """A transient failure injected by a :class:`FaultPlan`.

    A ``ConnectionError``, so the engine classifies it as transient through
    a type it already retries — no test type leaks into product code.
    """


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault rule: *which* instances fail, *how*, and *how often*.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        fingerprint: target chain fingerprint (``None`` matches every chain).
        strategy: target canonical strategy name (``None`` matches all).
        tiers: execution tiers the fault is armed on (``None`` = every tier);
            e.g. ``("process",)`` injects only in worker processes, so the
            in-process cell rung runs clean.
        times: firings per concrete ``(chain, strategy)`` instance before the
            fault disarms (1 = "fail once, then succeed").
        seconds: sleep duration of ``hang`` faults.
        factor: multiplier applied to the claimed period by ``corrupt``
            faults (0.5 claims an impossibly good schedule).
    """

    kind: str
    fingerprint: "str | None" = None
    strategy: "str | None" = None
    tiers: "tuple[str, ...] | None" = None
    times: int = 1
    seconds: float = 0.75
    factor: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}"
            )
        if self.times < 1:
            raise InvalidParameterError(f"times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise InvalidParameterError(
                f"seconds must be >= 0, got {self.seconds}"
            )
        if self.factor <= 0:
            raise InvalidParameterError(
                f"factor must be > 0, got {self.factor}"
            )

    def matches(self, fingerprint: str, strategy: str, tier: str) -> bool:
        """Whether this rule targets the given instance on the given tier."""
        if self.fingerprint is not None and self.fingerprint != fingerprint:
            return False
        if self.strategy is not None and self.strategy != strategy:
            return False
        if self.tiers is not None and tier not in self.tiers:
            return False
        return True

    def trigger(self) -> None:
        """Fire a pre-solve fault (``corrupt`` is applied post-solve instead)."""
        if self.kind == "raise":
            raise InjectedFault(
                f"injected transient fault (strategy={self.strategy}, "
                f"tiers={self.tiers})"
            )
        if self.kind == "bug":
            raise SchedulingError(
                "injected deterministic solver bug (retrying is useless)"
            )
        if self.kind == "interrupt":
            raise KeyboardInterrupt("injected Ctrl-C")
        if self.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if self.kind == "hang":
            time.sleep(self.seconds)

    def corrupt(self, outcome: ScheduleOutcome) -> ScheduleOutcome:
        """Tamper with a finished outcome's claimed period."""
        return dataclasses.replace(outcome, period=outcome.period * self.factor)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered set of fault rules plus a cross-process firing ledger.

    Attributes:
        specs: the rules, consulted in order; the first match wins.
        state_dir: directory holding one counter file per concrete
            ``(rule, chain, strategy)`` instance.  File size = firings so
            far, bumped by appending one byte — atomic enough for this
            append-only usage, and shared by every worker process.
    """

    specs: tuple[FaultSpec, ...]
    state_dir: str

    def fire(
        self, fingerprint: str, strategy: str, tier: str
    ) -> "FaultSpec | None":
        """Consume one firing for the matching rule, if any remain.

        Returns the armed :class:`FaultSpec` (caller triggers/applies it) or
        ``None`` when no rule matches or the match is exhausted.
        """
        for index, spec in enumerate(self.specs):
            if not spec.matches(fingerprint, strategy, tier):
                continue
            if self._consume(index, fingerprint, strategy) < spec.times:
                return spec
            return None
        return None

    def hits(self, strategy: str) -> bool:
        """Whether any rule could fire on ``strategy``."""
        return any(spec.strategy in (None, strategy) for spec in self.specs)

    def firings(self, index: int, fingerprint: str, strategy: str) -> int:
        """How often rule ``index`` has fired for one concrete instance."""
        try:
            return os.path.getsize(self._ledger(index, fingerprint, strategy))
        except OSError:
            return 0

    def _ledger(self, index: int, fingerprint: str, strategy: str) -> str:
        token = f"{index}:{fingerprint}:{strategy}".encode()
        return os.path.join(
            self.state_dir, hashlib.sha256(token).hexdigest()[:24]
        )

    def _consume(self, index: int, fingerprint: str, strategy: str) -> int:
        """Record one firing; return the count *before* this one."""
        os.makedirs(self.state_dir, exist_ok=True)
        path = self._ledger(index, fingerprint, strategy)
        before = self.firings(index, fingerprint, strategy)
        with open(path, "ab") as ledger:
            ledger.write(b".")
        return before


@dataclass(frozen=True, slots=True)
class _FaultedSolve:
    """A registry ``func`` that consults a plan around the shipped solver."""

    shipped: StrategyInfo
    plan: FaultPlan

    def __call__(self, chain, resources) -> ScheduleOutcome:
        tier = "serial" if multiprocessing.parent_process() is None else "process"
        spec = self.plan.fire(chain.fingerprint, self.shipped.name, tier)
        if spec is not None and spec.kind != "corrupt":
            spec.trigger()
        outcome = self.shipped.func(chain, resources)
        if spec is not None and spec.kind == "corrupt":
            outcome = spec.corrupt(outcome)
        return outcome


def _install(plan: FaultPlan, setitem=STRATEGIES.__setitem__) -> None:
    """Arm ``plan`` on the registry of this process.

    Idempotent: an entry that is already wrapped (a worker forked from an
    armed parent, or a second plan in one test) is unwrapped first, so a
    solver is never wrapped twice and strategies the plan cannot hit run
    as shipped.  Also each pool worker's initializer.
    """
    for name, info in list(STRATEGIES.items()):
        shipped = info.func.shipped if isinstance(info.func, _FaultedSolve) else info
        if plan.hits(name):
            faulted = _FaultedSolve(shipped, plan)
            setitem(name, dataclasses.replace(shipped, func=faulted, batch_func=None))
        elif shipped is not info:
            setitem(name, shipped)


def inject_faults(monkeypatch, plan: FaultPlan) -> None:
    """Arm ``plan`` for the rest of the test, in this process and in every
    pool worker an engine builds from now on.

    Composes with other patches of the pool construction site (the
    ``recording_pool`` fixture, a ``spawn``-context pool): the armed pool
    subclasses whatever class is installed there now.
    """
    _install(plan, partial(monkeypatch.setitem, STRATEGIES))
    base = pool_mod.ProcessPoolExecutor

    class FaultedPool(base):
        def __init__(self, *args, **kwargs):
            # The outermost (latest) plan wins over any wrapped one.
            kwargs.setdefault("initializer", _install)
            kwargs.setdefault("initargs", (plan,))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", FaultedPool)
