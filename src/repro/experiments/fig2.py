"""Fig. 2 — heatmaps of core-usage differences between FERTAC and HeRAD.

The paper analyzes R = (10B, 10L), SR = 0.5 (where FERTAC reaches the
optimum 51.2 % of the time) and shows, for each ``(Δ big, Δ little)`` pair,
the percentage of chains where FERTAC used that many more (or fewer) cores
than HeRAD — over all chains (Fig. 2a) and over only the chains where FERTAC
found a minimal period (Fig. 2b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.heatmap import UsageHeatmap, usage_heatmap
from ..analysis.slowdown import OPTIMAL_TOLERANCE
from ..core.types import Resources
from ..engine import CampaignEngine
from .common import run_campaign

__all__ = ["Fig2Result", "run", "render"]


@dataclass(frozen=True)
class Fig2Result:
    """The two heatmaps of Fig. 2 plus headline shares."""

    resources: Resources
    stateless_ratio: float
    strategy: str
    all_results: UsageHeatmap
    optimal_only: UsageHeatmap
    percent_optimal: float


def run(
    num_chains: int = 1000,
    resources: Resources = Resources(10, 10),
    stateless_ratio: float = 0.5,
    strategy: str = "fertac",
    seed: int = 0,
    jobs: int | None = None,
    engine: "CampaignEngine | None" = None,
) -> Fig2Result:
    """Compute the Fig. 2 heatmaps.

    Args:
        num_chains: campaign size (paper: 1000).
        resources: scenario budget (paper: (10, 10)).
        stateless_ratio: scenario SR (paper: 0.5).
        strategy: strategy compared against HeRAD (paper: FERTAC).
        seed: campaign seed.
        jobs: campaign-engine worker count (None: all cores).
        engine: campaign engine override — the CLI passes a resilient /
            journaled engine here for ``--resume``/``--retries``/``--timeout``.
    """
    campaign = run_campaign(
        resources,
        stateless_ratio,
        num_chains=num_chains,
        strategies=["herad", strategy],
        seed=seed,
        jobs=jobs,
        engine=engine,
    )
    rec = campaign.records[strategy]
    opt = campaign.records["herad"]
    ratios = rec.periods / opt.periods
    optimal_mask = ratios <= 1.0 + OPTIMAL_TOLERANCE

    return Fig2Result(
        resources=resources,
        stateless_ratio=stateless_ratio,
        strategy=strategy,
        all_results=usage_heatmap(
            rec.big_used, rec.little_used, opt.big_used, opt.little_used
        ),
        optimal_only=usage_heatmap(
            rec.big_used,
            rec.little_used,
            opt.big_used,
            opt.little_used,
            mask=optimal_mask,
            # The paper's Fig. 2b percentages keep all chains as denominator.
            population=num_chains,
        ),
        percent_optimal=float(np.mean(optimal_mask) * 100.0),
    )


def render(result: Fig2Result) -> str:
    """Render both heatmaps and the paper's headline shares."""
    blocks = [
        f"Fig. 2 — {result.strategy.upper()} vs HeRAD core usage, "
        f"R={result.resources}, SR={result.stateless_ratio} "
        f"({result.percent_optimal:.1f}% optimal periods; paper: 51.2%)",
        "",
        "(a) All results (% of chains per (Δ big, Δ little) cell):",
        result.all_results.render(),
        f"  at most 1 extra core: {result.all_results.share_within_extra_cores(1):.1f}% "
        "(paper: 59.0%)",
        f"  at most 2 extra cores: {result.all_results.share_within_extra_cores(2):.1f}% "
        "(paper: 83.1%)",
        "",
        "(b) Only chains where the strategy reached the optimal period"
        " (percentages of ALL chains, as in the paper):",
        result.optimal_only.render(),
        f"  at most 1 extra core: {result.optimal_only.share_within_extra_cores(1):.1f}% "
        "(paper: 21.2%)",
        f"  at most 2 extra cores: {result.optimal_only.share_within_extra_cores(2):.1f}% "
        "(paper: 39.2%)",
    ]
    return "\n".join(blocks)
