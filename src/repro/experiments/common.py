"""Shared machinery for the experimental campaign.

The synthetic experiments (Table I, Figs. 1-2) all run the same *campaign*:
draw N chains from the paper's distribution at a given stateless ratio,
schedule each with every strategy on a given budget, and record periods and
core usages.  :func:`run_campaign` does that once, delegating the instance
solves to the campaign engine (:mod:`repro.engine`): instances fan out over
``jobs`` workers and previously-solved instances replay from the shared memo
cache, with bitwise-identical results for every job count.

The execution-time experiments (Figs. 3-4) share :func:`time_strategy`,
which routes through the engine's (serial, never memoized) measurement path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.chain_stats import ChainProfile
from ..core.registry import PAPER_ORDER, get_info
from ..core.task import TaskChain
from ..core.types import Resources
from ..engine import CampaignEngine, default_engine
from ..workloads.synthetic import GeneratorConfig, chain_batch

__all__ = [
    "PAPER_STATELESS_RATIOS",
    "PAPER_NUM_CHAINS",
    "StrategyRecord",
    "CampaignResult",
    "campaign_chains",
    "run_campaign",
    "TimingPoint",
    "time_strategy",
]

#: The paper's three stateless-ratio scenarios.
PAPER_STATELESS_RATIOS: tuple[float, ...] = (0.2, 0.5, 0.8)

#: Chains per scenario in the paper's campaign.
PAPER_NUM_CHAINS: int = 1000


@dataclass(frozen=True)
class StrategyRecord:
    """Raw per-chain outcomes of one strategy over a campaign.

    Attributes:
        strategy: canonical strategy name.
        periods: achieved period per chain.
        big_used: big cores used per chain.
        little_used: little cores used per chain.
    """

    strategy: str
    periods: np.ndarray
    big_used: np.ndarray
    little_used: np.ndarray


@dataclass(frozen=True)
class CampaignResult:
    """Raw outcomes of one (resources, SR) campaign for several strategies.

    Attributes:
        resources: the platform budget.
        stateless_ratio: the scenario's SR.
        num_chains: population size.
        records: strategy name -> raw outcomes.
        seed: the campaign's base seed.
    """

    resources: Resources
    stateless_ratio: float
    num_chains: int
    records: dict[str, StrategyRecord]
    seed: int = 0

    @property
    def optimal_periods(self) -> np.ndarray:
        """HeRAD's periods (the per-chain optima)."""
        return self.records["herad"].periods


def campaign_chains(
    stateless_ratio: float,
    num_chains: int = PAPER_NUM_CHAINS,
    num_tasks: int = 20,
    seed: int = 0,
) -> "list[TaskChain]":
    """The population of one synthetic campaign: a pure function of its
    arguments, independent of the budget it is then solved on."""
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=stateless_ratio)
    return list(chain_batch(num_chains, config, seed=seed))


def run_campaign(
    resources: Resources,
    stateless_ratio: float,
    num_chains: int = PAPER_NUM_CHAINS,
    num_tasks: int = 20,
    strategies: Sequence[str] | None = None,
    seed: int = 0,
    jobs: int | None = None,
    engine: CampaignEngine | None = None,
    chains: "Sequence[TaskChain] | None" = None,
) -> CampaignResult:
    """Run one synthetic campaign (Section VI-A-1 protocol).

    Args:
        resources: platform budget ``R = (b, l)``.
        stateless_ratio: fraction of replicable tasks per chain.
        num_chains: chains to draw (paper: 1000).
        num_tasks: chain length (paper: 20).
        strategies: strategy names; defaults to the paper's five, and always
            includes ``herad`` (needed as the optimal reference).
        seed: base seed of the chain stream.
        jobs: worker count for the instance fan-out (``None``: the engine's
            default, itself ``os.cpu_count()``).  Any value yields the same
            arrays bit for bit.
        engine: campaign engine override; defaults to the process-wide
            engine with its shared memo cache.
        chains: the population, when the caller already drew it with
            :func:`campaign_chains` from the same arguments (a driver that
            sweeps budgets over one population draws it once, and each
            chain is fingerprinted once).  The result's ``num_chains`` is
            this population's size.

    Every solution is audited by the independent certificate checker
    (:mod:`repro.core.certify`) in the engine's workers, and every
    journaled row before it is replayed.

    Returns:
        The raw campaign outcomes.

    Raises:
        CertificationError: an outcome or a journaled row fails its audit
            (an engine with resilience on quarantines a failed solve
            instead).
    """
    names = list(strategies) if strategies is not None else list(PAPER_ORDER)
    if "herad" not in names:
        names.insert(0, "herad")
    canonical = [get_info(name).name for name in names]

    if chains is None:
        chains = campaign_chains(stateless_ratio, num_chains, num_tasks, seed)

    eng = engine if engine is not None else default_engine()
    arrays = eng.solve_instances(chains, resources, canonical, jobs=jobs)

    records = {
        name: StrategyRecord(
            strategy=name,
            periods=arrays[name].periods,
            big_used=arrays[name].big_used,
            little_used=arrays[name].little_used,
        )
        for name in canonical
    }
    return CampaignResult(
        resources=resources,
        stateless_ratio=stateless_ratio,
        num_chains=len(chains),
        records=records,
        seed=seed,
    )


@dataclass(frozen=True)
class TimingPoint:
    """Average execution time of one strategy on one scenario size.

    Attributes:
        strategy: canonical strategy name.
        num_tasks: chain length.
        resources: platform budget.
        stateless_ratio: the scenario's SR.
        mean_seconds: mean wall time per schedule computation.
        num_chains: sample size.
    """

    strategy: str
    num_tasks: int
    resources: Resources
    stateless_ratio: float
    mean_seconds: float
    num_chains: int

    @property
    def mean_microseconds(self) -> float:
        """Mean time in microseconds (the paper's Fig. 3/4 unit)."""
        return self.mean_seconds * 1e6


def time_strategy(
    strategy: str,
    resources: Resources,
    stateless_ratio: float,
    num_tasks: int,
    num_chains: int = 50,
    seed: int = 0,
    engine: CampaignEngine | None = None,
) -> TimingPoint:
    """Measure a strategy's mean scheduling time (Fig. 3/4 protocol).

    Profiles are precomputed outside the timed region — the paper's C++
    implementation likewise excludes input parsing; only ``Schedule`` /
    ``HeRAD`` proper is measured.  Measurement goes through the engine's
    latency path, which is always serial and bypasses the memo cache (a
    cache replay would time a dict lookup, not the scheduler).
    """
    info = get_info(strategy)
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=stateless_ratio)
    profiles = [
        ChainProfile(chain)
        for chain in chain_batch(num_chains, config, seed=seed)
    ]
    eng = engine if engine is not None else default_engine()
    mean_seconds = eng.measure_latency(info.name, profiles, resources)
    return TimingPoint(
        strategy=info.name,
        num_tasks=num_tasks,
        resources=resources,
        stateless_ratio=stateless_ratio,
        mean_seconds=mean_seconds,
        num_chains=num_chains,
    )
