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
"""

from .clock import monotonic, wall
from .context import (
    NULL_CONTEXT,
    ObsConfig,
    ObsContext,
    ObsPayload,
    Observability,
    activate,
    counter_add,
    current,
)
from .export import (
    spans_to_chrome_events,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from .metrics import (
    NULL_METRICS,
    HistogramStats,
    MetricsLike,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetrics,
)
from .profile import (
    FrameStat,
    aggregate_self,
    collapsed_stacks,
    leaf_attribution,
    self_seconds,
    validate_flamegraph,
    write_flamegraph,
)
from .report import RunReport, SpanSink, WorkerCost
from .sketch import (
    DEFAULT_ALPHA,
    SKETCH_VERSION,
    SketchBuilder,
    SketchSnapshot,
    sketch_of,
)
from .span import AttrValue, Span
from .tracer import NULL_TRACER, NullTracer, Tracer, TracerLike

__all__ = [
    "monotonic",
    "wall",
    "AttrValue",
    "Span",
    "Tracer",
    "NullTracer",
    "TracerLike",
    "NULL_TRACER",
    "HistogramStats",
    "MetricsSnapshot",
    "MetricsRegistry",
    "NullMetrics",
    "MetricsLike",
    "NULL_METRICS",
    "ObsConfig",
    "ObsContext",
    "ObsPayload",
    "Observability",
    "NULL_CONTEXT",
    "current",
    "activate",
    "counter_add",
    "spans_to_chrome_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "validate_chrome_trace",
    "RunReport",
    "SpanSink",
    "WorkerCost",
    "DEFAULT_ALPHA",
    "SKETCH_VERSION",
    "SketchBuilder",
    "SketchSnapshot",
    "sketch_of",
    "FrameStat",
    "aggregate_self",
    "collapsed_stacks",
    "leaf_attribution",
    "self_seconds",
    "validate_flamegraph",
    "write_flamegraph",
]
