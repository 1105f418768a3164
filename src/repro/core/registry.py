"""Uniform access to every scheduling strategy by name.

The evaluation campaigns (Table I, Figs. 1-5) iterate over the same five
strategies; this registry gives them one call signature:

    >>> outcome = get_strategy("fertac")(chain, Resources(10, 10))

Names are case-insensitive; the paper's display names (``OTAC (B)``) and the
plain identifiers (``otac_b``) are both accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .binary_search import ScheduleOutcome
from .chain_stats import ChainProfile
from .errors import UnknownStrategyError
from .fertac import fertac
from .herad import herad, herad_batch
from .otac import otac_big, otac_little
from .reference import ktype_reference
from .task import TaskChain
from .twocatac import twocatac
from .types import Resources

__all__ = [
    "StrategyFn",
    "BatchStrategyFn",
    "StrategyInfo",
    "STRATEGIES",
    "PAPER_ORDER",
    "get_strategy",
    "strategy_names",
    "run_strategies",
    "solve_batch",
]

StrategyFn = Callable[["TaskChain | ChainProfile", Resources], ScheduleOutcome]

#: A batch solver: solves many profiled chains at one budget in a single
#: call, returning outcomes in batch order.  Must be bitwise identical to
#: mapping the strategy's scalar ``func`` over the batch.
BatchStrategyFn = Callable[
    [Sequence[ChainProfile], Resources], "list[ScheduleOutcome]"
]

#: Instances handed to the HeRAD DP per call.  A span bounds the DP's memory
#: (a 25-row fill at 20 tasks, (10B,10L) peaks at ~6.4 MB, ~260 kB a row)
#: and, past the point where NumPy dispatch is amortised, more rows only
#: grow the working set.  Measured on the slot-stack DP (core/herad.py),
#: 200 chains of 20 tasks at SR 0.5, ms per row, best of 9, at spans 25 /
#: 50 / 100 / 200: (16B,4L) 0.87 / 1.00 / 1.00 / 1.23, (10B,10L) 1.26 /
#: 1.34 / 1.27 / 1.52, (4B,16L) 0.95 / 0.98 / 1.08 / 1.05 — 25 is the
#: fastest or tied (run-to-run spread ~0.1), so it is kept.  Off Table I
#: the optimum moves with the plane: (2B,2L) 0.21 / 0.14 / 0.12 / 0.11,
#: (20B,20L) 6.4 / 7.8 / 8.4 / 9.7.
_BATCH_SPAN: int = 25


@dataclass(frozen=True, slots=True)
class StrategyInfo:
    """Registry entry for one scheduling strategy.

    ``two_type_only`` marks strategies whose implementation is specialized
    to the paper's two core types (they raise ``InvalidPlatformError`` on a
    ``k != 2`` budget); every other strategy accepts any ``k``-type budget.

    ``batch_func`` is what campaigns solve a whole batch with when it is
    not a plain map of ``func``: HeRAD's DP on the whole batch
    (:func:`~repro.core.herad.herad_batch`, in sub-batches) and 2CATAC's
    memoised walk.  ``None`` means :func:`solve_batch` maps ``func`` itself.
    """

    name: str
    display_name: str
    func: StrategyFn
    optimal: bool
    heterogeneous: bool
    description: str
    two_type_only: bool = False
    batch_func: "BatchStrategyFn | None" = None


def _twocatac_memo(
    chain: "TaskChain | ChainProfile", resources: Resources
) -> ScheduleOutcome:  # pragma: no cover - thin wrapper
    return twocatac(chain, resources, memoize=True)


def _herad_spans(
    profiles: Sequence[ChainProfile], resources: Resources
) -> "list[ScheduleOutcome]":
    outcomes: list[ScheduleOutcome] = []
    for base in range(0, len(profiles), _BATCH_SPAN):
        sub = profiles[base : base + _BATCH_SPAN]
        outcomes.extend(herad_batch(sub, resources))
    return outcomes


def _twocatac_memo_map(
    profiles: Sequence[ChainProfile], resources: Resources
) -> "list[ScheduleOutcome]":
    return [twocatac(profile, resources, memoize=True) for profile in profiles]


def _norep(
    chain: "TaskChain | ChainProfile", resources: Resources
) -> ScheduleOutcome:  # pragma: no cover - thin wrapper
    from .norep import norep_optimal

    return norep_optimal(chain, resources)


STRATEGIES: dict[str, StrategyInfo] = {
    info.name: info
    for info in (
        StrategyInfo(
            name="herad",
            display_name="HeRAD",
            func=herad,
            optimal=True,
            heterogeneous=True,
            description=(
                "Optimal dynamic programming over task prefixes and core "
                "budgets (Eq. (4), Algos. 7-11)."
            ),
            two_type_only=True,
            batch_func=_herad_spans,
        ),
        StrategyInfo(
            name="2catac",
            display_name="2CATAC",
            func=twocatac,
            optimal=False,
            heterogeneous=True,
            description=(
                "Two-choice greedy: builds each stage with both core types "
                "and explores both branches (Algos. 5-6)."
            ),
            batch_func=_twocatac_memo_map,
        ),
        StrategyInfo(
            name="2catac_memo",
            display_name="2CATAC (memo)",
            func=_twocatac_memo,
            optimal=False,
            heterogeneous=True,
            description=(
                "2CATAC with subproblem memoization — identical schedules, "
                "polynomial state space (library extension)."
            ),
        ),
        StrategyInfo(
            name="norep",
            display_name="NoRep DP",
            func=_norep,
            optimal=False,
            heterogeneous=True,
            description=(
                "Optimal interval mapping *without replication* (library "
                "extension): isolates how much replication buys."
            ),
            two_type_only=True,
        ),
        StrategyInfo(
            name="fertac",
            display_name="FERTAC",
            func=fertac,
            optimal=False,
            heterogeneous=True,
            description=(
                "Little-cores-first greedy with fallback to big cores "
                "(Algo. 4)."
            ),
        ),
        StrategyInfo(
            name="ktype_ref",
            display_name="k-type ref",
            func=ktype_reference,
            optimal=False,
            heterogeneous=True,
            description=(
                "Exhaustive per-stage type assignment + binary search: the "
                "epsilon-optimal reference on any k-type budget (library "
                "extension; exponential-ish, small instances only)."
            ),
        ),
        StrategyInfo(
            name="otac_b",
            display_name="OTAC (B)",
            func=otac_big,
            optimal=False,
            heterogeneous=False,
            description="Homogeneous-optimal OTAC restricted to big cores.",
        ),
        StrategyInfo(
            name="otac_l",
            display_name="OTAC (L)",
            func=otac_little,
            optimal=False,
            heterogeneous=False,
            description="Homogeneous-optimal OTAC restricted to little cores.",
        ),
    )
}

#: The strategies, in the order the paper's tables list them.
PAPER_ORDER: tuple[str, ...] = ("herad", "2catac", "fertac", "otac_b", "otac_l")

_ALIASES: Mapping[str, str] = MappingProxyType(
    {
        "twocatac": "2catac",
        "reference": "ktype_ref",
        "ktype-ref": "ktype_ref",
        "2-catac": "2catac",
        "otac(b)": "otac_b",
        "otac (b)": "otac_b",
        "otac-b": "otac_b",
        "otac(l)": "otac_l",
        "otac (l)": "otac_l",
        "otac-l": "otac_l",
    }
)


def get_strategy(name: str) -> StrategyFn:
    """Look up a strategy function by (case-insensitive) name.

    Raises:
        KeyError: for unknown names, with the available names in the message.
    """
    return get_info(name).func


def get_info(name: str) -> StrategyInfo:
    """Look up a strategy's registry entry by (case-insensitive) name."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return STRATEGIES[key]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None


def strategy_names(paper_only: bool = True) -> tuple[str, ...]:
    """Names of the registered strategies.

    Args:
        paper_only: restrict to the five strategies evaluated in the paper
            (excludes library extensions such as the memoized 2CATAC).
    """
    if paper_only:
        return PAPER_ORDER
    return tuple(STRATEGIES)


def run_strategies(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    names: Iterable[str] | None = None,
) -> dict[str, ScheduleOutcome]:
    """Run several strategies on one instance.

    Args:
        chain: the task chain (or a precomputed profile).
        resources: the platform budget.
        names: strategy names; defaults to the paper's five.

    Returns:
        Mapping of canonical strategy name to its outcome.
    """
    selected = tuple(names) if names is not None else PAPER_ORDER
    return {
        get_info(name).name: get_info(name).func(chain, resources)
        for name in selected
    }


def solve_batch(
    chains: "Sequence[TaskChain | ChainProfile]",
    resources: Resources,
    strategy: str,
) -> list[ScheduleOutcome]:
    """Solve a whole batch of chains with one strategy at one budget.

    The entry point every campaign solves through (the engine's work units,
    ``repro solve``): HeRAD sweeps the batch through its DP in
    :data:`_BATCH_SPAN`-sized sub-batches, 2CATAC walks each chain with the
    subproblem memo on, and everything else maps the scalar python
    implementation over the batch.  Outcomes are returned in batch order and
    are **bitwise identical** to ``[func(c, resources) for c in chains]``.
    A strategy's refusal (:class:`~repro.core.errors.InvalidPlatformError`
    and friends) propagates from the call that raised it.
    """
    info = get_info(strategy)
    profiles = [
        chain if isinstance(chain, ChainProfile) else ChainProfile(chain)
        for chain in chains
    ]
    if info.batch_func is None:
        return [info.func(profile, resources) for profile in profiles]
    return info.batch_func(profiles, resources)


__all__.append("get_info")
