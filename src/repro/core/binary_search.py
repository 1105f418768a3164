"""The binary-search ``Schedule`` driver (Algo. 1).

Both greedy heuristics (FERTAC, 2CATAC) and the homogeneous OTAC baseline
share the same outer loop: bracket the optimal period (see
:mod:`repro.core.bounds`), then binary-search a target period ``P_mid``,
asking a strategy-specific ``ComputeSolution`` whether a schedule meeting
``P_mid`` exists.  Valid solutions tighten the upper bound to their *actual*
period; failures raise the lower bound to ``P_mid``.  The search stops when
the bracket is narrower than ``epsilon = 1 / (b + l)``.

The driver is strategy-agnostic: pass any callable with the
:class:`ComputeSolutionFn` signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..obs.context import counter_add
from .bounds import PeriodBounds, period_bounds, search_epsilon
from .chain_stats import ChainProfile, profile_of
from .errors import (
    CertificationError,
    InvalidParameterError,
    InvalidPlatformError,
)
from .packing import Walk, materialise
from .solution import Solution
from .task import TaskChain
from .types import INFINITY, Resources

__all__ = [
    "ComputeSolutionFn",
    "ScheduleOutcome",
    "schedule_by_binary_search",
]


class ComputeSolutionFn(Protocol):
    """Strategy-specific solution builder for one target period.

    Returns either a (possibly partial or empty) :class:`Solution`, which the
    driver validates against the full chain, the budget and the target
    period; or — the greedy strategies — a :data:`~repro.core.packing.Walk`
    decided on plain tuples, which the driver trusts probe by probe and
    turns into one validated :class:`Solution` at the end.
    """

    def __call__(
        self, profile: ChainProfile, resources: Resources, period: float
    ) -> "Solution | Walk": ...


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of a ``Schedule`` run.

    Attributes:
        solution: the best valid solution found (empty if none).
        period: its achieved period ``P(S)`` (``inf`` if none).
        iterations: number of binary-search probes performed.
        bounds: the initial period bracket.
        probes: the sequence of ``(P_mid, feasible)`` probe outcomes, useful
            for debugging and for the convergence tests.
    """

    solution: Solution
    period: float
    iterations: int
    bounds: PeriodBounds
    probes: tuple[tuple[float, bool], ...] = field(default=(), repr=False)

    @property
    def feasible(self) -> bool:
        """True when a valid schedule was found."""
        return not self.solution.is_empty


def schedule_by_binary_search(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    compute_solution: ComputeSolutionFn,
    *,
    epsilon: float | None = None,
    max_iterations: int = 200,
) -> ScheduleOutcome:
    """Run the paper's ``Schedule`` (Algo. 1) with a pluggable builder.

    Args:
        chain: the task chain (or a precomputed profile).
        resources: the platform budget ``R = (b, l)``.
        compute_solution: strategy-specific ``ComputeSolution``.
        epsilon: binary-search tolerance; defaults to ``1 / (b + l)``.
        max_iterations: hard safety cap on probes (the theoretical count is
            ``O(log(w_max * (b + l)))``, far below the default cap).

    Returns:
        A :class:`ScheduleOutcome`; its solution is empty only if no probe
        produced a valid schedule (which cannot happen for the paper's
        strategies when the budget is non-empty, since a single-stage
        whole-chain schedule is always found at the upper bound).

    Raises:
        InvalidPlatformError: when the budget has no cores.
    """
    profile = profile_of(chain)
    if resources.total <= 0:
        raise InvalidPlatformError("scheduling requires at least one core")

    bounds = period_bounds(profile, resources)
    eps = search_epsilon(resources) if epsilon is None else float(epsilon)
    if not 0 < eps < INFINITY:
        raise InvalidParameterError(
            f"epsilon must be positive and finite, got {eps}"
        )

    # The last feasible answer, as ``(solution or walk stages, period)``.
    kept: "tuple[Solution, float] | Walk" = (None, INFINITY)
    kept_target = INFINITY
    lower, upper = bounds.lower, bounds.upper
    probes: list[tuple[float, bool]] = []

    def probe(target: float) -> bool:
        """Ask the builder at ``target``; keep and log a feasible answer."""
        nonlocal kept, kept_target
        found = compute_solution(profile, resources, target)
        if isinstance(found, Solution):
            # Paper's ``IsValid`` (line 8), on the object contract.
            valid = found.is_valid(profile, resources, target)
            found = (found, found.period(profile)) if valid else (None, INFINITY)
        feasible = found[0] is not None
        if feasible:
            kept, kept_target = found, target
        probes.append((target, feasible))
        return feasible

    iterations = 0
    while upper - lower >= eps and iterations < max_iterations:
        iterations += 1
        target = (upper + lower) / 2.0
        if probe(target):
            # The achieved period can only shrink from here (line 10).
            upper = kept[1]
        else:
            lower = target

    if kept[0] is None:
        # The bracket can start degenerate (upper - lower < eps) for
        # single-task chains, and adversarial weight tables may defeat the
        # theoretical feasibility of the upper bound for a *greedy* builder.
        # Probe the upper bound, then the always-feasible whole-chain-on-one-
        # core period, so callers always get a valid schedule.
        usable = resources.usable_types()
        one_core = min(profile.total_weight(v) for v in usable)
        if not probe(bounds.upper):
            probe(one_core)

    best, best_period = kept
    if best is None:
        best = Solution.empty()
    elif not isinstance(best, Solution):
        # A walk: materialise once, and hold the one object to what the
        # tuples said — same operands, same operations, so the re-derived
        # period must be bit-equal.
        best = materialise(kept, resources)
        if (
            not best.is_valid(profile, resources, kept_target)
            or best.period(profile) != best_period  # lint: ignore[float-equality]
        ):
            raise CertificationError(
                f"greedy walk at target {kept_target} claimed period "
                f"{best_period} but materialised as {best.render()!r} with "
                f"period {best.period(profile)}"
            )

    # Observability hook: no-ops unless an obs context is ambient, and
    # records *about* the finished search — never feeds back into it.
    counter_add("binary_search.calls")
    counter_add("binary_search.iterations", iterations)

    return ScheduleOutcome(
        solution=best,
        period=best_period,
        iterations=iterations,
        bounds=bounds,
        probes=tuple(probes),
    )
