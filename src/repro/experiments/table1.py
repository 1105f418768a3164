"""Table I — simulation statistics for all scheduling strategies.

Runs the synthetic campaign (N chains of 20 tasks per scenario) over the
paper's three budgets and three stateless ratios, and reports, per strategy,
the 4-tuple (percentage of optimal periods, average/median/maximum slowdown)
and the average (big, little) core usage — next to the paper's own values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analysis.stats import ScenarioStats, aggregate_scenario
from ..analysis.tables import render_table
from ..core.registry import PAPER_ORDER, get_info
from ..core.types import Resources
from ..engine import CampaignEngine
from ..platform.presets import SIMULATION_BUDGETS
from .common import (
    PAPER_STATELESS_RATIOS,
    CampaignResult,
    campaign_chains,
    run_campaign,
)
from .paper_data import PAPER_TABLE1

__all__ = ["Table1Scenario", "Table1Result", "run", "render"]


@dataclass(frozen=True)
class Table1Scenario:
    """Aggregated statistics of one (resources, SR) campaign."""

    resources: Resources
    stateless_ratio: float
    stats: dict[str, ScenarioStats]
    campaign: CampaignResult


@dataclass(frozen=True)
class Table1Result:
    """The full Table I reproduction."""

    scenarios: tuple[Table1Scenario, ...]
    num_chains: int


def run(
    num_chains: int = 1000,
    budgets: Sequence[Resources] = SIMULATION_BUDGETS,
    stateless_ratios: Sequence[float] = PAPER_STATELESS_RATIOS,
    seed: int = 0,
    jobs: int | None = None,
    engine: "CampaignEngine | None" = None,
) -> Table1Result:
    """Run the Table I campaign.

    Args:
        num_chains: chains per scenario (paper: 1000; smaller values give a
            faster, noisier estimate).
        budgets: the platform budgets to sweep.
        stateless_ratios: the SR values to sweep.
        seed: base seed (each scenario uses the same chain weights stream,
            re-labelled for its SR, exactly like regenerating the paper's
            population).
        jobs: campaign-engine worker count (None: all cores).
        engine: campaign engine override — the CLI passes a resilient /
            journaled engine here for ``--resume``/``--retries``/``--timeout``.
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
            stats = {
                name: aggregate_scenario(
                    name,
                    rec.periods,
                    campaign.optimal_periods,
                    rec.big_used,
                    rec.little_used,
                )
                for name, rec in campaign.records.items()
            }
            scenarios.append(
                Table1Scenario(
                    resources=resources,
                    stateless_ratio=sr,
                    stats=stats,
                    campaign=campaign,
                )
            )
    return Table1Result(scenarios=tuple(scenarios), num_chains=num_chains)


def _paper_entry(resources: Resources, sr: float, strategy: str):
    for entry in PAPER_TABLE1:
        if (
            entry.resources == resources
            and entry.stateless_ratio == sr
            and entry.strategy == strategy
        ):
            return entry
    return None


def render(result: Table1Result, include_paper: bool = True) -> str:
    """Render the reproduction as a paper-style text table.

    Args:
        result: output of :func:`run`.
        include_paper: add the paper's reported values beside ours.
    """
    headers = ["R=(b,l)", "SR", "Strategy", "(% opt, avg, med, max)", "(b_used, l_used)"]
    if include_paper:
        headers += ["paper period stats", "paper usage"]
    rows = []
    for scenario in result.scenarios:
        for name in PAPER_ORDER:
            stats = scenario.stats[name]
            row = [
                str(scenario.resources),
                f"{scenario.stateless_ratio:.1f}",
                get_info(name).display_name,
                stats.render_period(),
                stats.render_usage(),
            ]
            if include_paper:
                entry = _paper_entry(
                    scenario.resources, scenario.stateless_ratio, name
                )
                if entry is None:
                    row += ["-", "-"]
                else:
                    row += [
                        f"( {entry.percent_optimal:5.1f}%, {entry.avg_slowdown:4.2f}, "
                        f"{entry.med_slowdown:4.2f}, {entry.max_slowdown:4.2f} )",
                        f"( {entry.avg_big_used:5.2f}, {entry.avg_little_used:5.2f} )",
                    ]
            rows.append(row)
    return render_table(
        headers,
        rows,
        title=(
            f"Table I reproduction — {result.num_chains} chains per scenario "
            "(paper: 1000)"
        ),
    )
