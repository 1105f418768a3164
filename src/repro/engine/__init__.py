"""Campaign execution engine: parallel fan-out + memoized scheduling.

Public API:

* :class:`~repro.engine.executor.CampaignEngine` — solve batches of
  ``(chain, budget, strategy)`` instances in-process (``jobs == 1``) or on
  a process pool (``jobs > 1``), deterministically.
* :func:`~repro.engine.executor.default_engine` — the process-wide engine
  with a shared memo cache (what ``run_campaign`` uses).
* :class:`~repro.engine.memo.MemoCache` — the instance-result cache keyed by
  chain fingerprint + budget + strategy.
* :func:`~repro.engine.plan.plan_units` /
  :class:`~repro.engine.plan.AdaptiveCostModel` — deterministic
  cost-adaptive work-unit planning (DESIGN.md §16).
* :class:`~repro.engine.resilience.ResilienceConfig` /
  :class:`~repro.engine.resilience.RetryPolicy` — retries with deterministic
  backoff, soft deadlines, process → serial degradation, and per-instance
  quarantine (:class:`~repro.engine.resilience.FailureRecord`).
* :class:`~repro.engine.checkpoint.CheckpointJournal` — crash-safe JSONL
  checkpointing behind ``--resume``.
* Observability (``obs=`` on the engine): spans, counters, and worker
  payloads from :mod:`repro.obs`, merged exactly across tiers
  (:class:`~repro.engine.batch.UnitOutcome` carries them home).

See DESIGN.md §7 for the architecture and the determinism guarantee,
§9 for the resilience layer, and §10 for observability.
"""

from .batch import (
    PendingInstance,
    UnitOutcome,
    WorkUnit,
    solve_unit,
    units_from_groups,
)
from .checkpoint import CheckpointJournal, load_journal
from .executor import (
    CampaignEngine,
    StrategyArrays,
    default_engine,
    reset_default_engine,
    resolve_jobs,
)
from .memo import DEFAULT_MAXSIZE, InstanceResult, MemoCache, MemoStats, make_key
from .plan import DEFAULT_UNIT_WALL_S, AdaptiveCostModel, plan_units
from .resilience import (
    TIERS,
    FailureRecord,
    ResilienceConfig,
    ResilienceReport,
    RetryPolicy,
    is_transient,
)

__all__ = [
    "CampaignEngine",
    "StrategyArrays",
    "default_engine",
    "reset_default_engine",
    "resolve_jobs",
    "PendingInstance",
    "UnitOutcome",
    "WorkUnit",
    "solve_unit",
    "units_from_groups",
    "DEFAULT_UNIT_WALL_S",
    "AdaptiveCostModel",
    "plan_units",
    "DEFAULT_MAXSIZE",
    "InstanceResult",
    "MemoCache",
    "MemoStats",
    "make_key",
    "CheckpointJournal",
    "load_journal",
    "TIERS",
    "FailureRecord",
    "ResilienceConfig",
    "ResilienceReport",
    "RetryPolicy",
    "is_transient",
]
