"""repro — scheduling partially-replicable task chains on two core types.

A complete, self-contained reproduction of *"Scheduling Strategies for
Partially-Replicable Task Chains on Two Types of Resources"* (Orhan et al.,
IPPS 2025): the FERTAC and 2CATAC greedy heuristics, the optimal HeRAD
dynamic program, the OTAC homogeneous baseline, a discrete-event model of
StreamPU's pipelined streaming runtime, the DVB-S2
receiver workload, and the full experimental campaign of the paper.

Quickstart::

    from repro import TaskChain, Resources, herad

    chain = TaskChain.from_weights(
        weights_big=[4, 10, 3, 7],
        weights_little=[9, 21, 8, 15],
        replicable=[True, True, False, True],
    )
    outcome = herad(chain, Resources(big=2, little=2))
    print(outcome.solution.render(), outcome.period)

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the paper
mapping.
"""

from .core import (
    INFINITY,
    PAPER_ORDER,
    STRATEGIES,
    CertificateReport,
    CertificationError,
    ChainProfile,
    CoreType,
    CoreUsage,
    InfeasibleScheduleError,
    InvalidChainError,
    InvalidParameterError,
    InvalidPlatformError,
    PowerModel,
    PowerReport,
    Resources,
    ScheduleOutcome,
    SchedulingError,
    Solution,
    Stage,
    StrategyInfo,
    Task,
    TaskChain,
    UnknownStrategyError,
    audit_solution,
    certify_outcome,
    certify_solution,
    fertac,
    get_strategy,
    herad,
    herad_reference,
    herad_solution,
    merge_replicable_stages,
    otac,
    otac_big,
    otac_little,
    pareto_front,
    run_strategies,
    solution_power,
    strategy_names,
    twocatac,
)
from .engine import CampaignEngine, MemoCache, default_engine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Task",
    "TaskChain",
    "ChainProfile",
    "Stage",
    "Solution",
    "CoreUsage",
    "CoreType",
    "Resources",
    "INFINITY",
    "ScheduleOutcome",
    "fertac",
    "twocatac",
    "herad",
    "herad_solution",
    "herad_reference",
    "otac",
    "otac_big",
    "otac_little",
    "merge_replicable_stages",
    "PowerModel",
    "PowerReport",
    "solution_power",
    "pareto_front",
    "STRATEGIES",
    "PAPER_ORDER",
    "StrategyInfo",
    "get_strategy",
    "run_strategies",
    "strategy_names",
    "SchedulingError",
    "InvalidChainError",
    "InvalidPlatformError",
    "InvalidParameterError",
    "InfeasibleScheduleError",
    "UnknownStrategyError",
    "CertificationError",
    "CertificateReport",
    "audit_solution",
    "certify_solution",
    "certify_outcome",
    "CampaignEngine",
    "MemoCache",
    "default_engine",
]
