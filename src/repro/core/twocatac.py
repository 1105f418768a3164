"""2CATAC — Two-Choice Allocation for TAsk Chains (Algos. 5-6).

Where FERTAC commits to little cores as early as possible, 2CATAC builds the
current stage with *both* core types and recursively explores both branches,
finally keeping the better alternative with ``ChooseBestSolution`` (Algo. 6):

* if only one branch is valid, keep it;
* if both are valid (they meet the target period by construction, so periods
  need no comparison), prefer the one that better exchanges big cores for
  little ones, and otherwise the one using fewer cores in total.

On a ``k``-type platform the two choices become ``k`` choices per stage, and
``ChooseBestSolution`` compares usages by *efficiency mass* (cores weighted
by their type index) against *performance mass* (cores weighted by the
reversed index): a candidate wins outright when it uses strictly more
efficient and strictly less performant capacity.  At ``k = 2`` the masses
are exactly the little- and big-core counts, so the pairwise rule — and the
left fold applying it across the per-type branches in type order, later
branch winning ties — reproduces Algo. 6 decision for decision.

The exploration is exponential in the number of stages (worst case ``O(k^n)``
per probe when each stage holds one task).  A memoized variant — an extension
over the paper, returning identical solutions because a subproblem is fully
determined by ``(start, remaining budget)`` at fixed target period — is
available through ``memoize=True`` and ablated in the benchmarks.

Both variants evaluate a stage at most once per probe.  At a fixed target
period ``ComputeStage`` is a pure function of ``(type, start, available)``
that stops depending on ``available`` once the budget covers the cores it
asks for, so a plan that used fewer cores than it was offered is the
budget-free plan, and every budget ``>= cores`` gets it.  The walk's stage
table keeps that plan per ``(type, start)`` and the others under their
exact budget; a type with no core left fits no stage and is not evaluated
at all.  The remaining budget travels as one mixed-radix integer: a
branch spends cores with one subtraction and a memo key is an ``int``.
Neither changes what is explored: ``packing.compute_stage_calls`` counts
one stage decision per branch and type, evaluated or looked up.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import NamedTuple

from ..obs.context import counter_add
from .binary_search import ScheduleOutcome, schedule_by_binary_search
from .chain_stats import ChainProfile
from .errors import InvalidChainError
from .packing import Walk, materialise, probe_stage, probe_tables
from .solution import Solution
from .task import TaskChain
from .types import INFINITY, Resources

__all__ = ["twocatac_compute_solution", "twocatac", "choose_best"]


class _Partial(NamedTuple):
    """A partial solution: stages from some start to the end of the chain,
    with accumulated per-type core usage (the paper amortizes the usage sums
    the same way, Algo. 5 line 13) and the largest stage weight among them.

    ``stages`` is a cons list ``((start, end, cores, type), rest)`` ending in
    ``None``, so a branch shares its suffix instead of copying it.
    """

    stages: "tuple | None"
    used: tuple[int, ...]
    weight: float = 0.0


def _masses(used: tuple[int, ...]) -> tuple[int, int]:
    """``(performance mass, efficiency mass)`` of a usage vector.

    Performance mass weights cores by reversed type index, efficiency mass
    by the type index itself; at ``k = 2`` they are exactly
    ``(big_used, little_used)`` (the k=2 shortcut also keeps this off the
    two-type hot path's profile).
    """
    if len(used) == 2:
        return used[0], used[1]
    k = len(used)
    performance = efficiency = 0
    for v, c in enumerate(used):
        efficiency += c * v
        performance += c * (k - 1 - v)
    return performance, efficiency


def choose_best(
    big_branch: "_Partial | None", little_branch: "_Partial | None"
) -> "_Partial | None":
    """Paper's ``ChooseBestSolution`` (Algo. 6) on two candidate branches.

    Both candidates, when present, already respect the target period and the
    core budget; the comparison is purely about the secondary objective.
    The first argument is the more-performant-type branch (``S_B`` at
    ``k = 2``); ties go to the second (``S_L``), as in the paper.
    """
    if big_branch is None:
        return little_branch
    if little_branch is None:
        return big_branch

    bb, bl = _masses(big_branch.used)
    lb, ll = _masses(little_branch.used)
    if bl > ll and bb < lb:
        return big_branch  # S_B makes better usage of little cores
    if bl < ll and bb > lb:
        return little_branch  # S_L makes better usage of little cores
    if bb + bl < lb + ll:
        return big_branch  # S_B uses fewer cores
    return little_branch  # S_L uses fewer cores (or tie)


#: A ``ComputeStage`` answer: ``(end, cores, weight)`` (``packing.probe_stage``).
_Plan = tuple[int, int, float]
#: One core type's share of a probe: ``(index, stride, radix, prefix sums,
#: budget-free plans by start, budget-bound plans by start * radix + budget)``.
_Layer = tuple[
    int, int, int, "tuple[float, ...]", "list[_Plan | None]", "dict[int, _Plan]"
]


def _twocatac_walk(
    profile: ChainProfile, resources: Resources, period: float, memoize: bool
) -> Walk:
    prefix, nxt, last = probe_tables(profile, period)
    # The remaining budget is one mixed-radix integer: type v's count is the
    # digit ``code // stride[v] % radix[v]``, so spending ``cores`` of it is
    # ``code - cores * stride[v]`` and a memo key is ``start * span + code``.
    layers: "list[_Layer]" = []
    span = 1
    for index, count in enumerate(resources.counts):
        # The stage table: ``free[start]`` is the plan ``ComputeStage`` makes
        # when the budget does not bind, which every budget ``>= cores``
        # gets; ``bound`` holds the others under ``start * radix + budget``.
        free: "list[_Plan | None]" = [None] * (last + 1)
        layers.append((index, span, count + 1, prefix[index], free, {}))
        span *= count + 1
    zero = (0,) * len(layers)
    cache: "dict[int, _Partial | None] | None" = {} if memoize else None
    calls = 0

    def solve(start: int, code: int) -> "_Partial | None":
        nonlocal calls
        if cache is not None:
            key = start * span + code
            if key in cache:
                return cache[key]

        best: "_Partial | None" = None
        for index, stride, radix, sums, free, bound in layers:
            # One stage decision per type, whether or not it is evaluated.
            calls += 1
            available = code // stride % radix
            if not available:
                continue  # no core of this type left: no stage can fit
            plan = free[start]
            if plan is None or plan[1] > available:
                slot = start * radix + available
                plan = bound.get(slot)
                if plan is None:
                    plan = probe_stage(sums, nxt, last, start, available, period)
                    # Fewer cores than the budget: it did not bind, and this
                    # is the budget-free plan (test_greedy_probe.py holds it).
                    if plan[1] < available:
                        free[start] = plan
                    else:
                        bound[slot] = plan
            end, cores, weight = plan
            if weight > period:
                continue
            stage = (start, end, cores, index)
            if end == last:
                usage = list(zero)
                usage[index] = cores
                candidate = _Partial((stage, None), tuple(usage), weight)
            else:
                rest = solve(end + 1, code - cores * stride)
                if rest is None:
                    continue
                usage = list(rest.used)
                usage[index] += cores
                candidate = _Partial(
                    (stage, rest.stages),
                    tuple(usage),
                    weight if weight > rest.weight else rest.weight,
                )
            # Left fold in type order, later branch winning ties: at k = 2
            # this is exactly choose_best(branches[BIG], branches[LITTLE]).
            best = choose_best(best, candidate)

        if cache is not None:
            cache[key] = best
        return best

    try:
        result = solve(0, span - 1)
    except RecursionError:
        raise InvalidChainError(
            f"2CATAC recurses one frame per stage and ran out of stack at a "
            f"stage depth <= {last + 1} (the chain's task count) under the "
            f"interpreter's recursion limit of {sys.getrecursionlimit()}"
        ) from None
    finally:
        counter_add("packing.compute_stage_calls", calls)
        # ``solve`` reaches itself through its closure: break the cycle so
        # the memo and the stage table go with this probe, not at the next
        # cyclic collection.
        del solve
    if result is None:
        return None, INFINITY
    stages = []
    node = result.stages
    while node is not None:
        stages.append(node[0])
        node = node[1]
    return stages, result.weight


def twocatac_compute_solution(
    profile: ChainProfile,
    resources: Resources,
    period: float,
    *,
    memoize: bool = False,
) -> Solution:
    """2CATAC's ``ComputeSolution`` (Algo. 5) for one target period.

    Args:
        profile: precomputed chain statistics.
        resources: the platform budget.
        period: target period ``P``.
        memoize: cache subproblems on ``(start, remaining budget)``.  This is
            an extension over the paper: it bounds the exploration by
            ``n * prod(counts + 1)`` states (a type's remaining count runs
            from 0 to its budget) while returning the same solutions, since
            a subproblem's outcome depends only on those values.
    """
    walk = _twocatac_walk(profile, resources, period, memoize)
    return materialise(walk, resources)


def twocatac(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    epsilon: float | None = None,
    memoize: bool = False,
) -> ScheduleOutcome:
    """Schedule a chain with 2CATAC (binary search + Algos. 5-6).

    Args:
        chain: the task chain (or a precomputed profile).
        resources: the platform budget ``R = (b, l)`` (or a ``k``-type one).
        epsilon: binary-search tolerance, defaulting to ``1 / (b + l)``.
        memoize: enable the subproblem cache (see
            :func:`twocatac_compute_solution`).

    Returns:
        The :class:`~repro.core.binary_search.ScheduleOutcome`.
    """
    walk = partial(_twocatac_walk, memoize=memoize)
    return schedule_by_binary_search(chain, resources, walk, epsilon=epsilon)
