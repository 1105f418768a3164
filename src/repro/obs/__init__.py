"""Observability: structured tracing, metrics, and run reports.

The paper's evaluation is entirely *measured* behaviour — scheduling times,
periods, throughput — so the reproduction's own runtime must be measurable
too.  This package provides the project's single observability surface:

* :mod:`~repro.obs.clock` — the sanctioned monotonic/wall clocks.  Lint rule
  REP110 forbids raw ``time.perf_counter()`` / ``time.time()`` everywhere
  else, so every timing decision is auditable in one module.
* :class:`~repro.obs.tracer.Tracer` / :class:`~repro.obs.span.Span` — a
  span-based tracer with explicit parent–child nesting, one buffer per
  process (the library runs one thread per process), and picklable spans so
  process-tier workers can ship their spans home inside work-unit results.
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms with picklable, mergeable snapshots (cross-process aggregation
  is a tested exactness guarantee, not best-effort).
* :mod:`~repro.obs.context` — the ambient per-worker observability context
  (:func:`~repro.obs.context.current` / :func:`~repro.obs.context.activate`)
  plus the :class:`~repro.obs.context.Observability` facade the campaign
  engine carries.
* :mod:`~repro.obs.export` — Chrome trace-event JSON (loadable in
  ``chrome://tracing`` / Perfetto) and JSONL event sinks, with a schema
  validator the tests hold every exported trace to.
* :class:`~repro.obs.report.RunReport` — the human-readable end-of-run
  summary (top time sinks, memo hit rate, failure counts) the CLI prints
  under ``--metrics``.

**Determinism contract** (DESIGN.md §10): observability never touches the
result path.  Spans and counters are recorded *about* solves, never consulted
*by* them, so a campaign traced at ``--jobs 8`` is bitwise identical to an
untraced serial run — a regression-tested guarantee.  The default
implementations (:data:`~repro.obs.tracer.NULL_TRACER`,
:data:`~repro.obs.metrics.NULL_METRICS`) are no-ops cheap enough to leave
permanently inlined in the hot paths.

The package itself binds only the clock and the ambient context, which
every importer of ``repro.obs`` loads anyway; the exporters, the report and
the profiles are imported from their own modules by the commands that
write them.
"""

from .clock import monotonic
from .context import (
    NULL_CONTEXT,
    ObsConfig,
    Observability,
    activate,
    counter_add,
    current,
)

__all__ = [
    "monotonic",
    "ObsConfig",
    "Observability",
    "NULL_CONTEXT",
    "current",
    "activate",
    "counter_add",
]
