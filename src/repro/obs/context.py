"""Observability configuration, ambient context, and the engine-facing facade.

Three layers, from outermost in:

* :class:`Observability` — what the :class:`~repro.engine.executor.CampaignEngine`
  holds.  Owns the session-lifetime :class:`~repro.obs.tracer.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry` (or their null twins when
  disabled) and absorbs worker payloads.
* :class:`ObsConfig` — the tiny picklable on/off switch shipped to worker
  processes inside :class:`~repro.engine.batch.WorkUnit`.  A worker calls
  :meth:`ObsConfig.create_context` to build its own live tracer/registry,
  records into them, and returns the resulting :class:`ObsPayload`.
* the **ambient context** — a module-level slot holding the active
  :class:`ObsContext`.  Instrumentation hooks deep in the core algorithms
  (:func:`counter_add` in ``binary_search``/``herad``/``packing``) read it
  via :func:`current` instead of threading an ``obs`` parameter through
  every call signature.  The library runs one thread per process
  (DESIGN.md §10: ``jobs == 1`` in-process, ``jobs > 1`` worker
  processes), and a worker process inherits nothing, so ``solve_unit``
  activates the unit's own context; one slot per process is all there is.

The default everywhere is :data:`NULL_CONTEXT`: ``current()`` in a process
that never activated anything returns it, and every operation on it is a
no-op — uninstrumented call sites pay one attribute read and one attribute
check, nothing more.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import NULL_METRICS, MetricsLike, MetricsRegistry, MetricsSnapshot
from .span import AttrValue, Span
from .tracer import NULL_TRACER, SpanHandle, Tracer, TracerLike

__all__ = [
    "ObsConfig",
    "ObsPayload",
    "ObsContext",
    "Observability",
    "NULL_OBSERVABILITY",
    "NULL_CONTEXT",
    "current",
    "activate",
    "counter_add",
    "histogram_observe",
]


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Picklable observability switches carried by work units."""

    trace: bool = False
    metrics: bool = False

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics

    def create_context(self) -> "ObsContext":
        """Build a live, local context for a worker process."""
        return ObsContext(
            tracer=Tracer() if self.trace else NULL_TRACER,
            metrics=MetricsRegistry() if self.metrics else NULL_METRICS,
        )


@dataclass(frozen=True, slots=True)
class ObsPayload:
    """Picklable record of everything a worker observed; shipped home in results."""

    spans: tuple[Span, ...] = ()
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    @property
    def empty(self) -> bool:
        return not self.spans and self.metrics.empty


@dataclass(frozen=True, slots=True)
class ObsContext:
    """A tracer + metrics pair; the unit of ambient activation."""

    tracer: TracerLike
    metrics: MetricsLike

    @property
    def active(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def span(self, name: str, category: str = "misc", **attrs: AttrValue) -> SpanHandle:
        return self.tracer.span(name, category, **attrs)

    def payload(self) -> ObsPayload:
        """Snapshot everything recorded so far into a picklable payload."""
        return ObsPayload(spans=self.tracer.collect(), metrics=self.metrics.snapshot())


NULL_CONTEXT = ObsContext(tracer=NULL_TRACER, metrics=NULL_METRICS)
"""The inert context a process sees until something is activated."""


class _Ambient:
    """The process's one ambient-context slot."""

    __slots__ = ("context",)

    def __init__(self) -> None:
        self.context: ObsContext = NULL_CONTEXT


_AMBIENT = _Ambient()


def current() -> ObsContext:
    """The context active in this process (``NULL_CONTEXT`` if none)."""
    return _AMBIENT.context


@contextmanager
def activate(context: ObsContext) -> Iterator[ObsContext]:
    """Make ``context`` ambient for the duration of the block."""
    prior = _AMBIENT.context
    _AMBIENT.context = context
    try:
        yield context
    finally:
        _AMBIENT.context = prior


def counter_add(name: str, value: float = 1.0) -> None:
    """Increment a counter on the ambient context (no-op when inert).

    This is *the* hook shape for core algorithms: one function call, one
    attribute read, one no-op method call when observability is off.
    """
    _AMBIENT.context.metrics.add(name, value)


def histogram_observe(name: str, value: float) -> None:
    """Record a histogram observation on the ambient context."""
    _AMBIENT.context.metrics.observe(name, value)


class Observability:
    """Session-lifetime facade held by the campaign engine.

    Construct with an :class:`ObsConfig` (or nothing for fully-off).  The
    engine activates ``self.context()`` around campaign execution, ships
    ``self.worker_config()`` to process-tier workers, and feeds returned
    payloads to :meth:`absorb`.
    """

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.tracer: TracerLike = Tracer() if self.config.trace else NULL_TRACER
        self.metrics: MetricsLike = (
            MetricsRegistry() if self.config.metrics else NULL_METRICS
        )
        self._context = ObsContext(tracer=self.tracer, metrics=self.metrics)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def context(self) -> ObsContext:
        return self._context if self.enabled else NULL_CONTEXT

    def span(self, name: str, category: str = "misc", **attrs: AttrValue) -> SpanHandle:
        return self.tracer.span(name, category, **attrs)

    def worker_config(self) -> ObsConfig | None:
        """Config to stamp onto work units; ``None`` keeps units lightweight."""
        return self.config if self.enabled else None

    def absorb(self, payload: ObsPayload | None) -> None:
        """Fold a worker payload into the session tracer/registry."""
        if payload is None or payload.empty:
            return
        if payload.spans:
            self.tracer.absorb(payload.spans)
        if not payload.metrics.empty:
            self.metrics.merge(payload.metrics)

    def spans(self) -> tuple[Span, ...]:
        return self.tracer.collect()


NULL_OBSERVABILITY = Observability()
"""Shared fully-disabled facade for engines constructed without ``obs=``."""
