"""FERTAC — First Efficient Resources for TAsk Chains (Algo. 4).

FERTAC builds stages greedily from the head of the chain, always trying
little (efficient) cores first and falling back to big cores only when the
little-core stage cannot respect the target period with the cores that
remain.  Wrapped in the binary-search ``Schedule`` driver, it runs in
``O(n log(w_max (b + l)) + n^2)`` — in this implementation the replicability
table is an O(n) index array, so the ``n^2`` term disappears.

On a ``k``-type platform the greedy generalizes to an *efficiency-ordered*
type list: types are tried from the most efficient (highest type index, see
the convention in :mod:`repro.core.types`) to the most performant.  For
``k = 2`` that order is exactly (little, big), so the paper's algorithm is
the two-type special case.

The paper presents ``ComputeSolution`` recursively; the recursion is a tail
call, implemented here as a loop.
"""

from __future__ import annotations

from .binary_search import ScheduleOutcome, schedule_by_binary_search
from .chain_stats import ChainProfile
from .packing import Walk, first_fit_walk, materialise
from .solution import Solution
from .task import TaskChain
from .types import CoreIndex, Resources

__all__ = ["fertac_compute_solution", "fertac", "efficiency_order"]


def efficiency_order(resources: Resources) -> tuple[CoreIndex, ...]:
    """FERTAC's type preference: most efficient type first.

    Type indices are ordered performant-to-efficient, so the greedy simply
    walks them in reverse; at ``k = 2`` this is ``(little, big)`` — the
    paper's Algo. 4 lines 1 and 3.
    """
    return tuple(reversed(resources.types()))


def _fertac_walk(
    profile: ChainProfile, resources: Resources, period: float
) -> Walk:
    order = tuple(map(int, efficiency_order(resources)))
    return first_fit_walk(profile, resources, period, order)


def fertac_compute_solution(
    profile: ChainProfile, resources: Resources, period: float
) -> Solution:
    """FERTAC's ``ComputeSolution`` (Algo. 4) for one target period.

    Builds stages left to right; each stage tries core types in efficiency
    order (little first, line 1; big as the fallback, line 3).  Returns the
    empty solution when no core type can host some stage within the
    remaining budget.
    """
    return materialise(_fertac_walk(profile, resources, period), resources)


def fertac(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    epsilon: float | None = None,
) -> ScheduleOutcome:
    """Schedule a chain with FERTAC (binary search + Algo. 4).

    Args:
        chain: the task chain (or a precomputed profile).
        resources: the platform budget ``R = (b, l)`` (or a ``k``-type one).
        epsilon: binary-search tolerance, defaulting to ``1 / (b + l)``.

    Returns:
        The :class:`~repro.core.binary_search.ScheduleOutcome` holding the
        best schedule found and search diagnostics.
    """
    return schedule_by_binary_search(
        chain, resources, _fertac_walk, epsilon=epsilon
    )
