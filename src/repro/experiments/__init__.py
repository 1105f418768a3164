"""Experiment drivers — one module per paper table/figure.

Every driver exposes ``run(...) -> <Result>`` and ``render(result) -> str``;
the CLI (``python -m repro``) wires them to the command line.  See
DESIGN.md §4 for the experiment-to-module index.

The driver modules load on first access (``repro.experiments.table1`` or
``from repro.experiments import table1``): ``table2``/``fig5``/``ablation``
pull in the streaming runtime and the SDR chain, which a Table I run has no
use for.
"""

from importlib import import_module
from types import ModuleType

from .common import (
    PAPER_NUM_CHAINS,
    PAPER_STATELESS_RATIOS,
    CampaignResult,
    StrategyRecord,
    TimingPoint,
    run_campaign,
    time_strategy,
)

__all__ = [
    "ablation",
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "run_campaign",
    "time_strategy",
    "CampaignResult",
    "StrategyRecord",
    "TimingPoint",
    "PAPER_NUM_CHAINS",
    "PAPER_STATELESS_RATIOS",
]

_DRIVERS = (
    "ablation", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "table1", "table2", "table3",
)


def __getattr__(name: str) -> ModuleType:
    if name in _DRIVERS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
