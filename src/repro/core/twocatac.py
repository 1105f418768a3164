"""2CATAC — Two-Choice Allocation for TAsk Chains (Algos. 5-6).

Where FERTAC commits to little cores as early as possible, 2CATAC builds the
current stage with *both* core types and recursively explores both branches,
finally keeping the better alternative with ``ChooseBestSolution`` (Algo. 6):

* if only one branch is valid, keep it;
* if both are valid (they meet the target period by construction, so periods
  need no comparison), prefer the one that better exchanges big cores for
  little ones, and otherwise the one using fewer cores in total.

On a ``k``-type platform the two choices become ``k`` choices per stage, and
``ChooseBestSolution`` compares branches by *efficiency mass* (cores weighted
by their type index) against *performance mass* (cores weighted by the
reversed index): a candidate wins outright when it uses strictly more
efficient and strictly less performant capacity.  At ``k = 2`` the masses
are exactly the little- and big-core counts, so the pairwise rule — and the
left fold applying it across the per-type branches in type order, later
branch winning ties — reproduces Algo. 6 decision for decision.  Both
masses are linear in the cores spent, so a branch carries them as two
integers (the paper amortizes its usage sums the same way, Algo. 5 line
13), and a branch's node is built only when the rule keeps it.

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
from ..obs.context import counter_add
from .binary_search import ScheduleOutcome, schedule_by_binary_search
from .chain_stats import ChainProfile
from .errors import InvalidChainError
from .packing import Walk, materialise, probe_stage, probe_tables
from .solution import Solution
from .task import TaskChain
from .types import INFINITY, Resources

__all__ = ["twocatac_compute_solution", "twocatac"]


#: A ``ComputeStage`` answer: ``(end, cores, weight)`` (``packing.probe_stage``).
_Plan = tuple[int, int, float]
#: One core type's share of a probe: ``(index, stride, radix, performance
#: weight of a core, prefix sums, budget-free plans by start, budget-bound
#: plans by start * radix + budget)``.  A core's efficiency weight is its
#: type index.
_Layer = tuple[
    int, int, int, int, "tuple[float, ...]", "list[_Plan | None]", "dict[int, _Plan]"
]
#: The stages from some start to the end of the chain, as a cons cell
#: ``(start, end, cores, type, rest)``: a branch shares its suffix.
_Cell = tuple[int, int, int, int, "_Cell | None"]
#: A branch: ``(stages, performance mass, efficiency mass, largest stage
#: weight)``.
_Node = tuple[_Cell, int, int, float]


def _twocatac_walk(
    profile: ChainProfile, resources: Resources, period: float, memoize: bool
) -> Walk:
    prefix, nxt, last = probe_tables(profile, period)
    # The remaining budget is one mixed-radix integer: type v's count is the
    # digit ``code // stride[v] % radix[v]``, so spending ``cores`` of it is
    # ``code - cores * stride[v]`` and a memo key is ``start * span + code``.
    layers: "list[_Layer]" = []
    span = 1
    ktype = len(resources.counts)
    for index, count in enumerate(resources.counts):
        # The stage table: ``free[start]`` is the plan ``ComputeStage`` makes
        # when the budget does not bind, which every budget ``>= cores``
        # gets; ``bound`` holds the others under ``start * radix + budget``.
        free: "list[_Plan | None]" = [None] * (last + 1)
        layers.append(
            (index, span, count + 1, ktype - 1 - index, prefix[index], free, {})
        )
        span *= count + 1
    cache: "dict[int, _Node | None] | None" = {} if memoize else None
    calls = 0

    def solve(start: int, code: int) -> "_Node | None":
        nonlocal calls
        if cache is not None:
            key = start * span + code
            if key in cache:
                return cache[key]

        best: "_Node | None" = None
        best_perf = best_eff = 0
        for index, stride, radix, to_perf, sums, free, bound in layers:
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
            rest: "_Cell | None" = None
            perf = cores * to_perf
            eff = cores * index
            if end != last:
                tail = solve(end + 1, code - cores * stride)
                if tail is None:
                    continue
                rest, tail_perf, tail_eff, top = tail
                perf += tail_perf
                eff += tail_eff
                weight = weight if weight > top else top
            # Algo. 6 as a left fold in type order, the kept branch playing
            # S_B and this one S_L: S_B stays if it makes better use of
            # efficient cores, or if neither does and it uses fewer cores
            # (at any k, performance + efficiency mass is (k - 1) * cores);
            # ties go to S_L.
            if best is not None and (
                (eff < best_eff and perf > best_perf)
                or (
                    perf + eff > best_perf + best_eff
                    and not (eff > best_eff and perf < best_perf)
                )
            ):
                continue
            best = ((start, end, cores, index, rest), perf, eff, weight)
            best_perf = perf
            best_eff = eff

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
    cell: "_Cell | None" = result[0]
    while cell is not None:
        stages.append(cell[:4])
        cell = cell[4]
    return stages, result[3]


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
