"""Fig. 1 — cumulative distributions of slowdown ratios.

Fig. 1a zooms the CDFs into the slowdown interval [1, 1.5] for all nine
(budget, SR) scenarios; Fig. 1b shows the full range for R = (10B, 10L).
The driver reuses the Table I campaign and renders the step curves as ASCII
plots plus machine-readable checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analysis.slowdown import SlowdownCdf, slowdown_cdf, slowdown_ratios
from ..analysis.tables import render_step_curves, render_table
from ..core.registry import PAPER_ORDER, get_info
from ..core.types import Resources
from ..engine import CampaignEngine
from ..platform.presets import SIMULATION_BUDGETS
from .common import PAPER_STATELESS_RATIOS, campaign_chains, run_campaign

__all__ = ["Fig1Scenario", "Fig1Result", "run", "render"]


@dataclass(frozen=True)
class Fig1Scenario:
    """CDFs of one (resources, SR) scenario."""

    resources: Resources
    stateless_ratio: float
    cdfs: dict[str, SlowdownCdf]


@dataclass(frozen=True)
class Fig1Result:
    """All scenario CDFs of Fig. 1."""

    scenarios: tuple[Fig1Scenario, ...]
    num_chains: int


def run(
    num_chains: int = 1000,
    budgets: Sequence[Resources] = SIMULATION_BUDGETS,
    stateless_ratios: Sequence[float] = PAPER_STATELESS_RATIOS,
    seed: int = 0,
    jobs: int | None = None,
    engine: "CampaignEngine | None" = None,
) -> Fig1Result:
    """Compute the slowdown CDFs for every scenario.

    Campaigns identical to Table I's (same seeds) replay from the engine's
    memo cache when both drivers run in one process (e.g. ``repro all``).
    An explicit ``engine`` (the CLI's resilient/journaled engine) is
    forwarded to every campaign.
    """
    scenarios = []
    populations = {
        sr: campaign_chains(sr, num_chains, seed=seed) for sr in stateless_ratios
    }
    for resources in budgets:
        for sr in stateless_ratios:
            campaign = run_campaign(
                resources, sr, num_chains=num_chains, seed=seed, jobs=jobs,
                engine=engine, chains=populations[sr],
            )
            optimal = campaign.optimal_periods
            cdfs = {
                name: slowdown_cdf(slowdown_ratios(rec.periods, optimal))
                for name, rec in campaign.records.items()
            }
            scenarios.append(
                Fig1Scenario(resources=resources, stateless_ratio=sr, cdfs=cdfs)
            )
    return Fig1Result(scenarios=tuple(scenarios), num_chains=num_chains)


def render(
    result: Fig1Result,
    zoom: tuple[float, float] = (1.0, 1.5),
    full_range_budget: Resources = Resources(10, 10),
) -> str:
    """Render Fig. 1a (zoomed CDFs) and Fig. 1b (full range) as text."""
    blocks: list[str] = []
    for scenario in result.scenarios:
        curves = {
            get_info(name).display_name: (
                scenario.cdfs[name].values,
                scenario.cdfs[name].cumulative,
            )
            for name in PAPER_ORDER
            if name in scenario.cdfs
        }
        blocks.append(
            f"Fig. 1a — R={scenario.resources}, SR={scenario.stateless_ratio}"
        )
        blocks.append(render_step_curves(curves, zoom))

        rows = [
            [
                get_info(name).display_name,
                f"{scenario.cdfs[name].fraction_optimal * 100:.1f}%",
                f"{scenario.cdfs[name].at(1.1) * 100:.1f}%",
                f"{scenario.cdfs[name].at(1.5) * 100:.1f}%",
            ]
            for name in PAPER_ORDER
            if name in scenario.cdfs
        ]
        blocks.append(
            render_table(
                ["Strategy", "<= 1.0 (optimal)", "<= 1.1", "<= 1.5"],
                rows,
                title="CDF checkpoints",
            )
        )
        blocks.append("")

    # Fig. 1b: full slowdown interval for the balanced budget.
    for scenario in result.scenarios:
        if scenario.resources != full_range_budget:
            continue
        hi = max(
            float(cdf.values.max()) for cdf in scenario.cdfs.values()
        )
        curves = {
            get_info(name).display_name: (
                scenario.cdfs[name].values,
                scenario.cdfs[name].cumulative,
            )
            for name in PAPER_ORDER
            if name in scenario.cdfs
        }
        blocks.append(
            f"Fig. 1b — full range, R={scenario.resources}, "
            f"SR={scenario.stateless_ratio}"
        )
        blocks.append(render_step_curves(curves, (1.0, hi * 1.02)))
        blocks.append("")
    return "\n".join(blocks)
