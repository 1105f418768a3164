"""Exhaustive optimal scheduler for small instances — an independent oracle.

``tests/core`` validates HeRAD, OTAC, the bounds and the k-type
generalization against this module.  It shares *no* code with the dynamic
program: it enumerates every contiguous partition of the
chain (``2^(n-1)`` of them), every per-stage core-type assignment, and for
each structure derives the optimal core allocation analytically (a
sequential stage uses exactly one core; a replicable stage of single-core
weight ``W`` needs ``ceil(W / P)`` cores to meet a period ``P``).  The
candidate periods form a finite set — every value ``W_stage(v) / r`` — so
the true optimum is found exactly.

Intended for ``n <= ~12`` and small budgets; guarded with an explicit limit.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

from repro.core.chain_stats import ChainProfile, profile_of
from repro.core.errors import InvalidPlatformError, SchedulingError
from repro.core.solution import Solution
from repro.core.stage import Stage
from repro.core.task import TaskChain
from repro.core.types import CoreIndex, Resources

__all__ = ["brute_force_optimal", "brute_force_period"]

_MAX_TASKS = 14


def _partitions(n: int) -> "Iterator[list[tuple[int, int]]]":
    """Yield every partition of ``0..n-1`` into contiguous intervals."""
    for mask in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
        bounds = [0, *cuts, n]
        yield [(bounds[k], bounds[k + 1] - 1) for k in range(len(bounds) - 1)]


def _structure_outcome(
    profile: ChainProfile,
    intervals: list[tuple[int, int]],
    types: "tuple[CoreIndex, ...]",
    resources: Resources,
) -> "tuple[float, tuple[int, ...], tuple[int, ...]] | None":
    """Best (period, per-type usage, per-stage cores) for a fixed partition
    and type assignment, or None when infeasible."""
    weights = [
        profile.interval_weight(s, e, v) for (s, e), v in zip(intervals, types)
    ]
    replicable = [profile.is_replicable(s, e) for (s, e) in intervals]
    caps = [resources.count(v) for v in types]

    # Candidate periods: every achievable stage weight.
    candidates: set[float] = set()
    for w, rep, cap in zip(weights, replicable, caps):
        if rep:
            candidates.update(w / r for r in range(1, max(cap, 1) + 1))
        else:
            candidates.add(w)

    best: "tuple[float, tuple[int, ...], tuple[int, ...]] | None" = None
    for period in sorted(candidates):
        cores: list[int] = []
        used = [0] * resources.ktype
        feasible = True
        for w, rep, v in zip(weights, replicable, types):
            if rep:
                need = max(1, math.ceil(w / period))
            else:
                if w > period:
                    feasible = False
                    break
                need = 1
            cores.append(need)
            used[int(v)] += need
        if not feasible:
            continue
        if not resources.fits(*used):
            continue
        if best is None or (period, *used) < (best[0], *best[1]):
            best = (period, tuple(used), tuple(cores))
        break  # candidates are sorted: the first feasible period is minimal
    return best


def brute_force_optimal(
    chain: "TaskChain | ChainProfile", resources: Resources
) -> Solution:
    """Return a globally optimal schedule by exhaustive enumeration.

    Minimizes the period; among period-optimal schedules, returns one with
    lexicographically minimal per-type usage (``(big, little)`` at ``k = 2``,
    performant-to-efficient generally).

    Raises:
        SchedulingError: when the chain is larger than the safety limit.
        InvalidPlatformError: when the budget is empty.
    """
    profile = profile_of(chain)
    if profile.n > _MAX_TASKS:
        raise SchedulingError(
            f"brute force is limited to {_MAX_TASKS} tasks (got {profile.n})"
        )
    if resources.total <= 0:
        raise InvalidPlatformError("brute force needs at least one core")

    best_key: "tuple[float, ...] | None" = None
    best_solution: Solution | None = None

    usable = resources.types()
    for intervals in _partitions(profile.n):
        for types in product(usable, repeat=len(intervals)):
            outcome = _structure_outcome(profile, intervals, types, resources)
            if outcome is None:
                continue
            period, used, cores = outcome
            key = (period, *used)
            if best_key is None or key < best_key:
                best_key = key
                best_solution = Solution(
                    Stage(s, e, r, v)
                    for (s, e), r, v in zip(intervals, cores, types)
                )

    if best_solution is None:
        return Solution.empty()
    return best_solution


def brute_force_period(
    chain: "TaskChain | ChainProfile", resources: Resources
) -> float:
    """The optimal period for the instance, by exhaustive enumeration."""
    profile = profile_of(chain)
    solution = brute_force_optimal(profile, resources)
    return solution.period(profile)
