"""Greedy stage construction: the paper's ``ComputeStage`` (Algo. 2).

``ComputeStage`` decides where a stage starting at task ``start`` should end
and how many cores (of one given type) it needs so that its weight respects a
target period ``P``.  The procedure:

1. packs as many tasks as possible on a *single* core (``MaxPacking``);
2. if the packed interval is replicable and not final, extends it to the
   last consecutive replicable task and computes the cores required;
3. if that requires more cores than available, shrinks the stage back to
   what the available cores can sustain;
4. otherwise checks whether surrendering one core (shrinking the stage so
   the leftover tasks plus the following sequential task fit on a single
   core of the next stage) is a strictly better use of resources.

:func:`probe_stage` is the one scalar transcription of that procedure, fused
with the single-stage validity check, over the prefix-sum and next-sequential
tuples of a :class:`~repro.core.chain_stats.ChainProfile`.  The greedy
strategies decide a whole bisection probe on it as a *walk* over ``(start,
end, cores, type)`` tuples (:func:`first_fit_walk` for FERTAC and OTAC, the
branch exploration in :mod:`repro.core.twocatac`); the binary search builds
a :class:`~repro.core.solution.Solution` from the one walk it keeps
(:func:`materialise`).  :func:`compute_stage` is the object-level view.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil
from typing import Sequence

from ..obs.context import counter_add
from .chain_stats import ChainProfile
from .errors import InvalidChainError, InvalidParameterError
from .solution import Solution
from .stage import Stage
from .types import INFINITY, CoreIndex, Resources

__all__ = [
    "StagePlan",
    "Walk",
    "compute_stage",
    "first_fit_walk",
    "materialise",
    "probe_stage",
    "probe_tables",
    "stage_fits",
]

#: One probe's answer: the ``(start, end, cores, type index)`` stages in chain
#: order and the period they achieve, or ``(None, inf)`` for "no schedule".
Walk = tuple["list[tuple[int, int, int, int]] | None", float]


@dataclass(frozen=True, slots=True)
class StagePlan:
    """The outcome of ``ComputeStage``: a stage end index and a core count.

    Attributes:
        end: inclusive 0-based index of the stage's last task.
        cores: number of cores ``u`` the stage uses.
    """

    end: int
    cores: int


def probe_stage(
    sums: tuple[float, ...],
    nxt: tuple[int, ...],
    last: int,
    start: int,
    available: int,
    period: float,
) -> tuple[int, int, float]:
    """``ComputeStage`` (Algo. 2) and its validity check, on the profile's tables.

    ``sums`` are one core type's weight prefix sums, ``nxt[s]`` the first
    sequential task at or after ``s`` (``n`` if none), ``last`` the chain's
    last index; the stage starts at ``start`` with ``available`` cores of
    that type left.  Returns ``(end, cores, weight)``: the plan and its stage
    weight (Eq. (1)).  The stage fits exactly when ``weight <= period``; a
    core count outside ``1..available`` reports an infinite weight, and a
    core need that overflows to infinity counts as ``available + 1``.  Guards
    (:func:`probe_tables`) and the call count belong to the caller.
    """
    base = sums[start]
    seq = nxt[start]

    # Line 1: pack with one core (a forced single task when nothing fits).
    # On one core the replicable and the sequential regions share the limit,
    # so one bisection serves both (and ``n + 1`` sums bound it by ``last``).
    end = bisect_right(sums, base + period) - 2
    if end < start:
        end = start

    replicable = seq > end
    if replicable and end != last:
        # Lines 3-14: a replicable, non-final stage extends across the whole
        # run of consecutive replicable tasks and absorbs more cores.  Inside
        # the run ``MaxPacking`` is a single bisection capped at the run's
        # end: the one-core packing stopped short of ``seq``, so the
        # sequential region cannot contribute.
        end = seq - 1
        weight = sums[end + 1] - base
        try:
            cores = ceil(weight / period) or 1
        except OverflowError:  # an infinite need: more than any budget
            cores = available + 1
        if cores > available:
            # Lines 5-7: not enough cores for the full replicable run.
            cores = available
            if cores >= 1:
                packed = bisect_right(sums, base + period * cores) - 2
                if packed < end:
                    end = packed if packed > start else start
            else:
                end = start
            weight = sums[end + 1] - base
        elif cores >= 2 and end != last:
            # Lines 8-12: the next task is sequential.  Check whether giving
            # up one core here lets the leftover tasks ride along with that
            # sequential task on a single core of the next stage.  MaxPacking
            # may return a *forced* single-task interval that violates the
            # period (e.g. one heavy replicable task needing >= 2 cores);
            # the shrink is only taken when the shorter stage actually fits.
            fewer = cores - 1
            shorter = bisect_right(sums, base + period * fewer) - 2
            if shorter > end:
                shorter = end
            elif shorter < start:
                shorter = start
            short_weight = sums[shorter + 1] - base
            if (
                short_weight / fewer <= period
                # ``ceil(x) <= 1`` is ``x <= 1``, and an infinite x is not.
                and (sums[end + 2] - sums[shorter + 1]) / period <= 1
            ):
                end, cores, weight = shorter, fewer, short_weight
    else:
        # Line 2: the cores this interval needs — more than one only when
        # the packing was forced past the period by a single heavy task.
        weight = sums[end + 1] - base
        try:
            cores = ceil(weight / period) or 1
        except OverflowError:
            cores = available + 1

    if cores < 1 or cores > available:
        return end, cores, INFINITY
    return end, cores, weight / cores if replicable else weight


def probe_tables(
    profile: ChainProfile, period: float
) -> tuple[tuple[tuple[float, ...], ...], tuple[int, ...], int]:
    """One probe's guard, hoisted out of its stages: check the target once
    and hand out ``(prefix sums per type, next-sequential table, last index)``.
    """
    if not 0 < period < INFINITY:
        raise InvalidParameterError(
            f"target period must be positive and finite: {period}"
        )
    return profile.prefix, profile.next_sequential, profile.n - 1


def compute_stage(
    profile: ChainProfile,
    start: int,
    available: int,
    core_type: CoreIndex,
    period: float,
) -> StagePlan:
    """Paper's ``ComputeStage`` (Algo. 2) for a stage starting at ``start``.

    Args:
        profile: precomputed chain statistics.
        start: 0-based index of the stage's first task.
        available: cores of ``core_type`` still available (``c``).
        core_type: the core type ``v`` used for the whole stage.
        period: target period ``P``.

    Returns:
        A :class:`StagePlan`.  The plan is *not* guaranteed to be valid (the
        stage weight may exceed ``P``, or ``cores`` may exceed ``available``)
        — callers must check with :func:`stage_fits`, mirroring the paper
        where ``ComputeSolution`` validates each stage after building it.
    """
    prefix, nxt, last = probe_tables(profile, period)
    if not 0 <= start <= last:
        raise InvalidChainError(
            f"invalid stage start {start} for a chain of {profile.n} tasks"
        )
    # Observability hook (no-op without an ambient obs context): stage
    # construction count is the greedy strategies' work metric.
    counter_add("packing.compute_stage_calls")
    end, cores, _ = probe_stage(
        prefix[core_type], nxt, last, start, available, period
    )
    return StagePlan(end=end, cores=cores)


def stage_fits(
    profile: ChainProfile,
    start: int,
    plan: StagePlan,
    available: int,
    core_type: CoreIndex,
    period: float,
) -> bool:
    """Single-stage validity check used after :func:`compute_stage`.

    A stage is acceptable when it uses at least one and at most ``available``
    cores and its weight (Eq. (1)) does not exceed the target period.
    """
    if plan.cores < 1 or plan.cores > available:
        return False
    return (
        profile.stage_weight(start, plan.end, plan.cores, core_type) <= period
    )


def first_fit_walk(
    profile: ChainProfile,
    resources: Resources,
    period: float,
    order: Sequence[int],
) -> Walk:
    """Build stages left to right, each on the first type of ``order`` whose
    stage fits the remaining budget: FERTAC's ``ComputeSolution`` (Algo. 4,
    a tail call, hence a loop) in efficiency order, OTAC's with one type.
    """
    prefix, nxt, last = probe_tables(profile, period)
    remaining = list(resources.counts)
    stages = []
    achieved = 0.0
    calls = 0
    start = 0
    try:
        while True:
            for index in order:
                calls += 1
                end, cores, weight = probe_stage(
                    prefix[index], nxt, last, start, remaining[index], period
                )
                if weight <= period:
                    break
            else:
                return None, INFINITY
            stages.append((start, end, cores, index))
            if weight > achieved:
                achieved = weight
            if end == last:
                return stages, achieved
            remaining[index] -= cores
            start = end + 1
    finally:
        counter_add("packing.compute_stage_calls", calls)


def materialise(walk: Walk, resources: Resources) -> Solution:
    """The :class:`Solution` a walk decided (empty for "no schedule")."""
    types = resources.types()
    # A list, not a generator: ``tuple(generator)`` resizes in place, which
    # shifts blocks between CPython's per-size tuple free lists on every
    # solve and lets RSS creep by ~1 MB over a campaign.
    return Solution(
        [Stage(s, e, cores, types[v]) for s, e, cores, v in walk[0] or ()]
    )
