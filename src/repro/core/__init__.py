"""Scheduling core: the paper's primary contribution.

This package implements scheduling of partially-replicable task chains on
two types of resources (big/little cores):

* problem model — :class:`Task`, :class:`TaskChain`, :class:`Stage`,
  :class:`Solution`, :class:`Resources`, :class:`CoreType`;
* greedy heuristics — :func:`fertac` (Algo. 4) and :func:`twocatac`
  (Algos. 5-6), both wrapped in the binary-search ``Schedule`` driver
  (Algo. 1);
* the optimal dynamic program — :func:`herad` (Algos. 7-11 / Eq. (4)) and
  :func:`herad_batch`, the same DP over a whole batch of chains;
* the homogeneous baseline — :func:`otac`, :func:`otac_big`,
  :func:`otac_little`;
* the verification oracle — :func:`herad_reference` (literal pseudocode);
  the exhaustive enumeration lives in ``tests/core/oracle_bruteforce.py``.
"""

from .binary_search import (
    ComputeSolutionFn,
    ScheduleOutcome,
    schedule_by_binary_search,
)
from .bounds import PeriodBounds, period_bounds, search_epsilon
from .certify import (
    CertificateReport,
    CertificateViolation,
    audit_solution,
    certify_outcome,
    certify_solution,
    optimality_bracket,
)
from .chain_stats import ChainProfile, profile_of
from .errors import (
    CertificationError,
    InfeasibleScheduleError,
    InvalidChainError,
    InvalidParameterError,
    InvalidPlatformError,
    SchedulingError,
    UnknownStrategyError,
)
from .fertac import fertac, fertac_compute_solution
from .herad import herad, herad_batch, herad_solution
from .herad_reference import herad_reference
from .merge import merge_replicable_stages
from .norep import norep_optimal, norep_period
from .otac import otac, otac_big, otac_little
from .packing import StagePlan, compute_stage, stage_fits
from .reference import ktype_reference, reference_compute_solution
from .power import PowerModel, PowerReport, pareto_front, solution_power
from .registry import (
    PAPER_ORDER,
    STRATEGIES,
    StrategyInfo,
    get_info,
    get_strategy,
    run_strategies,
    strategy_names,
)
from .solution import CoreUsage, Solution
from .stage import Stage
from .task import Task, TaskChain
from .twocatac import twocatac, twocatac_compute_solution
from .warmstart import warm_start
from .types import (
    INFINITY,
    CoreIndex,
    CoreType,
    Resources,
    core_types,
    format_usage,
    type_name,
    type_symbol,
)

__all__ = [
    "warm_start",
    # model
    "Task",
    "TaskChain",
    "ChainProfile",
    "profile_of",
    "Stage",
    "Solution",
    "CoreUsage",
    "CoreType",
    "CoreIndex",
    "Resources",
    "INFINITY",
    "core_types",
    "type_symbol",
    "type_name",
    "format_usage",
    # machinery
    "ComputeSolutionFn",
    "ScheduleOutcome",
    "schedule_by_binary_search",
    "PeriodBounds",
    "period_bounds",
    "search_epsilon",
    "StagePlan",
    "compute_stage",
    "stage_fits",
    "merge_replicable_stages",
    "PowerModel",
    "PowerReport",
    "solution_power",
    "pareto_front",
    # strategies
    "fertac",
    "fertac_compute_solution",
    "twocatac",
    "twocatac_compute_solution",
    "herad",
    "herad_batch",
    "herad_solution",
    "herad_reference",
    "otac",
    "otac_big",
    "otac_little",
    "norep_optimal",
    "norep_period",
    "ktype_reference",
    "reference_compute_solution",
    # registry
    "STRATEGIES",
    "PAPER_ORDER",
    "StrategyInfo",
    "get_strategy",
    "get_info",
    "run_strategies",
    "strategy_names",
    # certificates
    "CertificateReport",
    "CertificateViolation",
    "audit_solution",
    "certify_solution",
    "certify_outcome",
    "optimality_bracket",
    # errors
    "SchedulingError",
    "InvalidChainError",
    "InvalidPlatformError",
    "InvalidParameterError",
    "InfeasibleScheduleError",
    "UnknownStrategyError",
    "CertificationError",
]
