"""Deterministic fault injection for the campaign engine.

The resilience layer (:mod:`repro.engine.resilience`) is only trustworthy if
every one of its recovery paths is *provoked* under test, not just reasoned
about.  This module provides the provocation: a :class:`FaultPlan` is a
picklable, deterministic description of which scheduling instances fail, how,
and how many times.  Plans ride inside :class:`~repro.engine.batch.WorkUnit`
objects, so the same faults fire identically on the serial path and in
freshly-spawned worker processes.

Fault kinds (:data:`FAULT_KINDS`):

* ``raise`` — raise :class:`InjectedFault` (a *transient* failure: the retry
  machinery is expected to recover).
* ``bug`` — raise a plain :class:`~repro.core.errors.SchedulingError` (a
  *deterministic* solver failure: retrying is useless, the instance must be
  quarantined).
* ``crash`` — hard-kill the worker with ``os._exit`` (surfaces as
  ``BrokenProcessPool`` on the process tier — the closest reproducible stand-in
  for an OOM-killed or segfaulted worker).
* ``hang`` — sleep for :attr:`FaultSpec.seconds` before solving (exercises the
  soft-deadline/timeout path).
* ``corrupt`` — let the solve finish, then *tamper with the claimed outcome*
  (period scaled by :attr:`FaultSpec.factor`) before the worker's audit;
  :func:`repro.core.certify.certify_outcome` rejects the tampered claim
  with a :class:`~repro.core.errors.CertificationError` naming the cell —
  the test that proves the auditor earns its keep.
* ``interrupt`` — raise :class:`KeyboardInterrupt` (a Ctrl-C mid-campaign; the
  retry machinery must *not* swallow it).
* ``core_failure`` / ``core_recovery`` — *timed platform events* (see
  :data:`PLATFORM_FAULT_KINDS`): at simulated time :attr:`FaultSpec.at`,
  :attr:`FaultSpec.cores` cores of type :attr:`FaultSpec.core_type` go down
  (respectively come back).  These kinds never fire in the per-cell batch
  path — :meth:`FaultSpec.matches` is ``False`` for them — they are consumed
  by the discrete-event simulator (:mod:`repro.sim`), so one
  :class:`FaultPlan` can drive the batch engine and the simulator together.

Determinism: a fault fires based only on the instance fingerprint, strategy,
execution tier, and a firing counter — never on wall-clock or entropy.  The
counter lives in ``state_dir`` as one file per concrete instance (a byte
appended per firing), so "fail the first N attempts, then succeed" holds even
when attempts land in different worker processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import InvalidParameterError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.binary_search import ScheduleOutcome

__all__ = [
    "FAULT_KINDS",
    "PLATFORM_FAULT_KINDS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
]

#: Timed platform-event kinds, consumed by the simulator (never per-cell).
PLATFORM_FAULT_KINDS: tuple[str, ...] = (
    "core_failure",
    "core_recovery",
)

#: Recognized fault kinds (see module docstring).
FAULT_KINDS: tuple[str, ...] = (
    "raise",
    "bug",
    "crash",
    "hang",
    "corrupt",
    "interrupt",
    *PLATFORM_FAULT_KINDS,
)

#: Exit status used by ``crash`` faults (distinctive in worker post-mortems).
CRASH_EXIT_CODE: int = 13


class InjectedFault(SchedulingError):
    """A transient failure injected by a :class:`FaultPlan` (tests only)."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault rule: *which* instances fail, *how*, and *how often*.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        fingerprint: target chain fingerprint (``None`` matches every chain).
        strategy: target canonical strategy name (``None`` matches all).
        tiers: execution tiers the fault is armed on (``None`` = every tier);
            e.g. ``("process",)`` injects only in worker processes, so the
            serial rung of the degradation ladder runs clean.
        times: firings per concrete ``(chain, strategy)`` instance before the
            fault disarms (1 = "fail once, then succeed").
        seconds: sleep duration of ``hang`` faults.
        factor: multiplier applied to the claimed period by ``corrupt``
            faults (0.5 claims an impossibly good schedule).
        at: simulated time of a timed platform event (``core_failure`` /
            ``core_recovery`` only; ignored by per-cell kinds).
        core_type: platform type index the timed event acts on.
        cores: number of cores the timed event takes down / brings back.
    """

    kind: str
    fingerprint: "str | None" = None
    strategy: "str | None" = None
    tiers: "tuple[str, ...] | None" = None
    times: int = 1
    seconds: float = 0.75
    factor: float = 0.5
    at: float = 0.0
    core_type: int = 0
    cores: int = 1

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
        if self.at < 0:
            raise InvalidParameterError(f"at must be >= 0, got {self.at}")
        if self.core_type < 0:
            raise InvalidParameterError(
                f"core_type must be >= 0, got {self.core_type}"
            )
        if self.cores < 1:
            raise InvalidParameterError(
                f"cores must be >= 1, got {self.cores}"
            )

    @property
    def is_timed(self) -> bool:
        """True for timed platform events (simulator-only kinds)."""
        return self.kind in PLATFORM_FAULT_KINDS

    def matches(self, fingerprint: str, strategy: str, tier: str) -> bool:
        """Whether this rule targets the given instance on the given tier.

        Timed platform events never match a per-cell solve: they describe
        the *platform* over simulated time, not an instance, and are
        consumed by :mod:`repro.sim` instead.
        """
        if self.is_timed:
            return False
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

    def corrupt(self, outcome: "ScheduleOutcome") -> "ScheduleOutcome":
        """Tamper with a finished outcome's claimed period."""
        return dataclasses.replace(outcome, period=outcome.period * self.factor)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered set of fault rules plus a cross-process firing ledger.

    Attributes:
        specs: the rules, consulted in order; the first match wins.
        state_dir: directory holding one counter file per concrete
            ``(rule, chain, strategy)`` instance.  File size = firings so
            far, bumped by appending one byte — atomic enough for the
            engine's append-only usage, and shared by every worker process.
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

    def targets(self, fingerprint: str, strategies: "tuple[str, ...]") -> bool:
        """Whether *any* rule could fire on this instance on *any* tier.

        Non-consuming (no ledger access) and deliberately tier-agnostic and
        firing-count-agnostic: the batch engine uses it to route instances a
        plan might touch through the scalar per-cell path, where the armed
        fault actually gets its :meth:`fire` consultation.  Over-approximating
        (routing an already-exhausted target to the scalar path) only costs
        the vectorized speedup for that instance — results stay identical.
        """
        for spec in self.specs:
            if spec.is_timed:
                continue
            if spec.fingerprint is not None and spec.fingerprint != fingerprint:
                continue
            if spec.strategy is not None and spec.strategy not in strategies:
                continue
            return True
        return False

    def platform_events(self) -> "tuple[FaultSpec, ...]":
        """The timed platform events, sorted by time (stable in spec order).

        This is the bridge to :mod:`repro.sim`: the simulator turns these
        into ``core_failure`` / ``core_recovery`` events on its clock, so a
        single plan drives per-cell solver faults *and* platform dynamics.
        """
        timed = [
            (spec.at, index, spec)
            for index, spec in enumerate(self.specs)
            if spec.is_timed
        ]
        timed.sort(key=lambda item: (item[0], item[1]))
        return tuple(spec for _, _, spec in timed)

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
