"""Runtime solution-certificate auditor.

An *independent* re-derivation of everything the paper's evaluation trusts
about a schedule: stage weights (Eq. (1)), the period (Eq. (2)), resource
validity (Eq. (3)), and the core-usage accounting behind the secondary
objective — plus an analytic optimality bracket for HeRAD outputs.

Independence is the point: this module deliberately does **not** reuse the
prefix-sum machinery of :mod:`repro.core.chain_stats` or the evaluation
methods of :mod:`repro.core.solution`.  Every quantity is recomputed from
the raw :class:`~repro.core.task.Task` data with plain Python loops and
``math.fsum``, so a bug in the optimized evaluation paths cannot certify
its own output.  Comparisons against solver *claims* use
``math.isclose`` — the re-derivation accumulates sums in a different order
than the prefix-sum evaluators, so results may differ by ULPs (exactly the
failure mode the ``float-equality`` lint rule guards against).

Usage::

    report = audit_solution(outcome.solution, chain, resources,
                            claimed_period=outcome.period)
    assert report.ok, report.render()

or let :func:`certify_solution` raise a
:class:`~repro.core.errors.CertificationError`.  The campaign engine runs
this auditor on every solve and on every journaled row it replays, and
``repro solve`` on every schedule it prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import CertificationError, InvalidChainError, InvalidPlatformError
from .solution import Solution
from .task import Task, TaskChain
from .types import CoreIndex, Resources, format_usage, type_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .binary_search import ScheduleOutcome
    from .chain_stats import ChainProfile

__all__ = [
    "CertificateViolation",
    "CertificateReport",
    "audit_solution",
    "certify_solution",
    "certify_outcome",
    "optimality_bracket",
]

#: Relative tolerance for cross-checking claims against the re-derivation.
#: Claims come from prefix-sum arithmetic, the audit from ``math.fsum`` —
#: identical real values, different rounding; 1e-9 is ~1e6 ULPs of slack on
#: doubles while catching any corruption of practical magnitude.
DEFAULT_REL_TOL: float = 1e-9


@dataclass(frozen=True, slots=True)
class CertificateViolation:
    """One failed certificate.

    Attributes:
        code: stable machine-readable violation class (e.g. ``budget``).
        message: human explanation with the offending numbers.
    """

    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one audit.

    Attributes:
        violations: every failed certificate (empty when the solution holds).
        period: the independently re-derived period ``P(S)``.
        usage: re-derived per-type core usage (``(big, little)`` at ``k = 2``).
        lower_bound: analytic optimal-period lower bound (only when the
            optimality certificate was requested).
        upper_bound: analytic feasible-period upper bound (ditto).
    """

    violations: tuple[CertificateViolation, ...]
    period: float
    usage: tuple[int, ...]
    lower_bound: "float | None" = None
    upper_bound: "float | None" = None

    @property
    def big_used(self) -> int:
        """Re-derived big-core (type 0) usage."""
        return self.usage[0]

    @property
    def little_used(self) -> int:
        """Re-derived little-core (type 1) usage."""
        return self.usage[1] if len(self.usage) > 1 else 0

    @property
    def ok(self) -> bool:
        """True when every certificate holds."""
        return not self.violations

    def render(self) -> str:
        """Multi-line human report (used in CertificationError messages)."""
        status = "CERTIFIED" if self.ok else "REJECTED"
        lines = [
            f"{status}: period={self.period:.12g} "
            f"usage={format_usage(self.usage)}"
        ]
        if self.lower_bound is not None and self.upper_bound is not None:
            lines.append(
                f"  optimality bracket: [{self.lower_bound:.12g}, "
                f"{self.upper_bound:.12g}]"
            )
        lines.extend(f"  violation {v}" for v in self.violations)
        return "\n".join(lines)


def _chain_of(chain: "TaskChain | ChainProfile") -> TaskChain:
    """Unwrap to the raw task data without importing chain_stats."""
    if isinstance(chain, TaskChain):
        return chain
    inner = getattr(chain, "chain", None)
    if isinstance(inner, TaskChain):
        return inner
    raise InvalidChainError(
        f"cannot audit against a {type(chain).__name__}; "
        "expected a TaskChain or ChainProfile"
    )


def _weights(tasks: "Sequence[Task]", core_type: CoreIndex) -> "list[float]":
    """Each task's weight on one core type, by direct field access (no
    Task.weight helper: stay independent)."""
    index = int(core_type)
    if index == 0:
        return [task.weight_big for task in tasks]
    if index == 1:
        return [task.weight_little for task in tasks]
    return [task.extra_weights[index - 2] for task in tasks]


def _close(a: float, b: float, rel_tol: float) -> bool:
    """isclose that also treats two infinities of the same sign as equal."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def optimality_bracket(
    chain: "TaskChain | ChainProfile", resources: Resources
) -> "tuple[float, float]":
    """Independent ``[lower, upper]`` bracket for the optimal period.

    Lower bound: the best conceivable period — either perfect load balance
    of every task at its fastest usable speed over all cores, or the
    heaviest sequential task at its fastest usable speed (replication
    cannot help it).  Upper bound: the classic chains-on-chains guarantee
    of a greedy single-type packing, minimized over usable core types.

    This mirrors :func:`repro.core.bounds.period_bounds` *by construction,
    not by call* — the re-derivation below shares no code with it.

    Raises:
        InvalidPlatformError: for an empty budget.
    """
    tasks = _chain_of(chain).tasks
    usable = [v for v in range(resources.ktype) if resources.count(v) > 0]
    if not usable:
        raise InvalidPlatformError("cannot bracket the period without cores")

    columns = [_weights(tasks, v) for v in usable]
    fastest = [min(weights) for weights in zip(*columns)]
    balance = math.fsum(fastest) / resources.total
    heaviest_seq = max(
        (w for t, w in zip(tasks, fastest) if not t.replicable), default=0.0
    )
    lower = max(balance, heaviest_seq)

    upper = min(
        math.fsum(column) / resources.count(v) + max(column)
        for v, column in zip(usable, columns)
    )
    return lower, max(upper, lower)


def audit_solution(
    solution: Solution,
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    claimed_period: "float | None" = None,
    claimed_big: "int | None" = None,
    claimed_little: "int | None" = None,
    claimed_usage: "Sequence[int] | None" = None,
    target_period: "float | None" = None,
    optimal: bool = False,
    rel_tol: float = DEFAULT_REL_TOL,
) -> CertificateReport:
    """Re-derive every validity certificate of a schedule from raw data.

    Args:
        solution: the schedule under audit.
        chain: the scheduled chain (or its profile; only the raw task data
            is used).
        resources: the platform budget ``R = (b, l)`` or a ``k``-type one.
        claimed_period: the solver's reported period, cross-checked against
            the re-derived one.
        claimed_big: the solver's reported big-core usage.
        claimed_little: the solver's reported little-core usage.
        claimed_usage: the solver's full per-type usage claim (the ``k``-type
            form of ``claimed_big``/``claimed_little``; give one or the
            other, not both).
        target_period: optional target ``P`` the solution must meet
            (Algo. 1's per-probe validity).
        optimal: additionally certify the period against the analytic
            optimality bracket (for HeRAD outputs).
        rel_tol: tolerance for float cross-checks.

    Returns:
        A :class:`CertificateReport`; inspect ``.ok`` / ``.violations``.
    """
    tasks = _chain_of(chain).tasks
    n = len(tasks)
    violations: list[CertificateViolation] = []

    def violate(code: str, message: str) -> None:
        violations.append(CertificateViolation(code, message))

    ktype = resources.ktype
    stages = tuple(solution.stages)
    if not stages:
        violate("empty", "the solution has no stages")
        return CertificateReport(
            violations=tuple(violations),
            period=math.inf,
            usage=(0,) * ktype,
        )

    # -- structure: bounds, contiguity, coverage ---------------------------
    if stages[0].start != 0:
        violate(
            "coverage",
            f"first stage starts at task {stages[0].start}, not 0",
        )
    if stages[-1].end != n - 1:
        violate(
            "coverage",
            f"last stage ends at task {stages[-1].end}, chain has {n} tasks",
        )
    previous_end = None
    for k, stage in enumerate(stages):
        if not (0 <= stage.start <= stage.end < n):
            violate(
                "stage-bounds",
                f"stage {k} interval [{stage.start}, {stage.end}] is outside "
                f"the chain (n={n})",
            )
        if previous_end is not None and stage.start != previous_end + 1:
            violate(
                "contiguity",
                f"stage {k} starts at {stage.start}, expected "
                f"{previous_end + 1}",
            )
        previous_end = stage.end

    # -- per-stage weight (Eq. (1)) and usage accounting -------------------
    period = 0.0
    used = [0] * ktype
    for k, stage in enumerate(stages):
        lo, hi = max(stage.start, 0), min(stage.end, n - 1)
        members = tasks[lo : hi + 1]
        if stage.cores < 1:
            violate("stage-cores", f"stage {k} uses {stage.cores} cores")
            continue
        index = int(stage.core_type)
        if index >= ktype:
            violate(
                "stage-type",
                f"stage {k} runs on core type {index}, the budget only has "
                f"{ktype} types",
            )
            continue
        replicable = all(t.replicable for t in members)
        interval = math.fsum(_weights(members, stage.core_type))
        if replicable:
            weight = interval / stage.cores
        else:
            weight = interval
            if stage.cores > 1:
                violate(
                    "wasted-cores",
                    f"stage {k} holds a sequential task yet reserves "
                    f"{stage.cores} cores (Eq. (1): extra replicas of a "
                    "stateful stage do no work)",
                )
        period = max(period, weight)
        used[index] += stage.cores

    # -- budget (Eq. (3)) ---------------------------------------------------
    for v in range(ktype):
        if used[v] > resources.count(v):
            violate(
                "budget",
                f"{used[v]} {type_name(v)} cores used, budget is "
                f"{resources.count(v)}",
            )

    # -- claims vs re-derivation -------------------------------------------
    if claimed_period is not None and not _close(claimed_period, period, rel_tol):
        violate(
            "period-mismatch",
            f"solver claims period {claimed_period!r}, audit derives "
            f"{period!r}",
        )
    claims: list[tuple[int, int]] = []
    if claimed_big is not None:
        claims.append((0, claimed_big))
    if claimed_little is not None:
        claims.append((1, claimed_little))
    if claimed_usage is not None:
        claims.extend(enumerate(claimed_usage))
    for v, claim in claims:
        actual = used[v] if v < ktype else 0
        if claim != actual:
            violate(
                "usage-mismatch",
                f"solver claims {claim} {type_name(v)} cores, audit counts "
                f"{actual}",
            )
    if target_period is not None and period > target_period and not _close(
        period, target_period, rel_tol
    ):
        violate(
            "target-period",
            f"period {period!r} exceeds the target {target_period!r}",
        )

    # -- optimality bracket (HeRAD) -----------------------------------------
    lower = upper = None
    if optimal:
        lower, upper = optimality_bracket(chain, resources)
        if period < lower and not _close(period, lower, rel_tol):
            violate(
                "optimality-lower-bound",
                f"claimed-optimal period {period!r} beats the analytic "
                f"lower bound {lower!r} — the evaluation is corrupt",
            )
        if period > upper and not _close(period, upper, rel_tol):
            violate(
                "optimality-upper-bound",
                f"claimed-optimal period {period!r} exceeds the greedy "
                f"feasibility bound {upper!r} — not an optimum",
            )

    return CertificateReport(
        violations=tuple(violations),
        period=period,
        usage=tuple(used),
        lower_bound=lower,
        upper_bound=upper,
    )


def certify_solution(
    solution: Solution,
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    claimed_period: "float | None" = None,
    claimed_big: "int | None" = None,
    claimed_little: "int | None" = None,
    claimed_usage: "Sequence[int] | None" = None,
    target_period: "float | None" = None,
    optimal: bool = False,
    rel_tol: float = DEFAULT_REL_TOL,
    context: "str | None" = None,
) -> CertificateReport:
    """Audit and raise on failure.

    Raises:
        CertificationError: when any certificate fails; the message carries
            the full report (and ``context``, e.g. the strategy name).
    """
    report = audit_solution(
        solution,
        chain,
        resources,
        claimed_period=claimed_period,
        claimed_big=claimed_big,
        claimed_little=claimed_little,
        claimed_usage=claimed_usage,
        target_period=target_period,
        optimal=optimal,
        rel_tol=rel_tol,
    )
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise CertificationError(f"{prefix}{report.render()}")
    return report


def certify_outcome(
    outcome: "ScheduleOutcome",
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    optimal: bool = False,
    context: "str | None" = None,
) -> CertificateReport:
    """Certify a :class:`~repro.core.binary_search.ScheduleOutcome`.

    Cross-checks the outcome's claimed period and the library's core-usage
    accounting against the independent re-derivation.

    Raises:
        CertificationError: when any certificate fails.
    """
    usage = outcome.solution.core_usage(resources.ktype)
    return certify_solution(
        outcome.solution,
        chain,
        resources,
        claimed_period=outcome.period,
        claimed_usage=usage.counts,
        optimal=optimal,
        context=context,
    )


__all__.append("DEFAULT_REL_TOL")
