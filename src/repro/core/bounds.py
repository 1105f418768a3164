"""Period bounds and binary-search tolerance (Algo. 1, lines 1-3).

``Schedule`` brackets the optimal period between:

* a lower bound ``P_min`` — the best conceivable period: either every task
  replicated over all cores at its fastest usable speed (perfect load
  balance), or the heaviest sequential task at its fastest usable speed
  (replication cannot help it);
* an upper bound ``P_max`` — a period at which a schedule provably exists:
  for each usable core type ``v`` with ``c_v`` cores, a greedy single-type
  packing achieves at most ``total^v / c_v + w_max^v`` (the classic
  chains-on-chains argument), so the minimum over usable types is feasible.

The paper states the bounds under the assumption that tasks run fastest on
big cores (footnote 1): ``P_min = max(sum w^B / (b+l), max seq w^B)`` and
``P_max = P_min + max w^L``.  The formulas here reduce to the same bracket in
that regime (up to a feasible, slightly looser upper bound) while remaining
*correct* for arbitrary weight tables and for single-type budgets — e.g. the
OTAC(L) baseline, where using big-core weights in the bounds would either
under- or over-shoot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_stats import ChainProfile
from .errors import InvalidParameterError, InvalidPlatformError
from .types import CoreIndex, Resources

__all__ = ["PeriodBounds", "period_bounds", "search_epsilon"]


@dataclass(frozen=True, slots=True)
class PeriodBounds:
    """The ``[P_min, P_max]`` bracket for the binary search."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0 <= self.lower <= self.upper):
            raise InvalidParameterError(f"invalid period bounds: {self}")

    @property
    def width(self) -> float:
        """Bracket width ``P_max - P_min``."""
        return self.upper - self.lower

    def midpoint(self) -> float:
        """The binary-search probe ``P_mid`` (Algo. 1, line 6)."""
        return (self.upper + self.lower) / 2.0


def _usable_types(resources: Resources) -> "list[CoreIndex]":
    return resources.usable_types()


def period_bounds(profile: ChainProfile, resources: Resources) -> PeriodBounds:
    """Compute a correct ``[P_min, P_max]`` bracket for the optimal period.

    Args:
        profile: precomputed chain statistics.
        resources: the platform budget; must contain at least one core.

    Returns:
        Bounds such that ``lower <= P* <= upper`` where ``P*`` is the optimal
        period, and such that the paper's greedy builders find *some* valid
        schedule at ``upper``.

    Raises:
        InvalidPlatformError: when the budget is empty.
    """
    if resources.ktype > profile.ktype:
        raise InvalidPlatformError(
            f"budget has {resources.ktype} core types but the chain only "
            f"carries weights for {profile.ktype}"
        )
    usable = _usable_types(resources)
    if not usable:
        raise InvalidPlatformError("cannot bound the period without cores")

    chain = profile.chain
    # Fastest usable speed per task: a task can never run faster than this.
    fastest = chain.weights(usable[0])
    for v in usable[1:]:
        fastest = [a if a <= b else b for a, b in zip(fastest, chain.weights(v))]

    # (I) replicate everything over all cores at the fastest usable speed
    # (numpy's pairwise sum: the bracket's bits steer every bisection probe).
    balance = float(np.add.reduce(fastest, dtype=np.float64)) / resources.total
    # (II) the heaviest sequential task runs somewhere, unreplicated.
    nxt = profile.next_sequential
    heaviest_seq = float(
        max([w for i, w in enumerate(fastest) if nxt[i] == i], default=0.0)
    )
    lower = max(balance, heaviest_seq)

    # Feasible upper bound: best single-type greedy packing guarantee.
    upper = min(
        profile.total_weight(v) / resources.count(v) + profile.max_weight(v)
        for v in usable
    )
    upper = max(upper, lower)
    return PeriodBounds(lower, upper)


def search_epsilon(resources: Resources) -> float:
    """Binary-search stopping tolerance (Algo. 1, line 3).

    ``epsilon = 1 / (b + l)`` accounts for the fractional nature of periods
    of replicated stages: with integer task weights, achievable periods are
    rationals ``W / r`` with ``r <= b + l``.
    """
    if resources.total <= 0:
        raise InvalidPlatformError("cannot derive a tolerance without cores")
    return 1.0 / resources.total
