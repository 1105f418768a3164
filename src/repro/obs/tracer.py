"""Span-based tracer: one span stack and one span list, no lock.

Concurrency model
-----------------
The library runs one thread per process (DESIGN.md §10, "One thread
per process"): the engine records from the thread that drives it, and no
product code starts another.  So a tracer keeps a single span stack and a
single list, with no lock and no thread-local, and every span it records
sits on one lane: ``tid`` is the process id, the main thread's id on Linux.

Process-tier campaigns can't share a tracer at all: each worker process
builds its own :class:`Tracer` (from the picklable
:class:`~repro.obs.context.ObsConfig` carried by the work unit), records
spans, and returns them inside the unit result.  The engine then feeds them
to :meth:`Tracer.absorb` on the parent tracer.  Because the monotonic clock
is system-wide on Linux, absorbed spans interleave correctly with local
ones when sorted by start time.

Span ids are allocated from a single :class:`itertools.count`.  Worker ids
restart per work unit (pool workers rebuild their tracer for every unit),
so :meth:`Tracer.absorb` remaps each incoming forest into the session
counter — after absorption, (pid, span_id) is globally unique and
``parent_id`` only ever refers to a span with the same pid.  A forest
recorded in the absorbing process (a serial unit) is hung under the span
open at absorb time; a pool worker's stays on its own pid lane.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable
from dataclasses import replace
from types import TracebackType
from typing import Protocol

from .clock import monotonic as _clock
from .span import AttrValue, Span

__all__ = ["SpanHandle", "TracerLike", "Tracer", "NullTracer", "NULL_TRACER"]


class SpanHandle(Protocol):
    """Context manager returned by ``TracerLike.span``."""

    def __enter__(self) -> None: ...

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None: ...


class TracerLike(Protocol):
    """Structural interface shared by :class:`Tracer` and :class:`NullTracer`."""

    enabled: bool

    def span(self, name: str, category: str = ..., **attrs: AttrValue) -> SpanHandle: ...

    def collect(self) -> tuple[Span, ...]: ...

    def absorb(self, spans: Iterable[Span]) -> None: ...


class _SpanScope:
    """Open span: records start on ``__enter__`` and the Span on ``__exit__``.

    Hand-rolled rather than ``@contextmanager`` because a generator frame
    per span is measurably heavier than a tiny object, and spans wrap hot
    engine paths.
    """

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_start", "_span_id", "_parent_id", "_depth")

    def __init__(self, tracer: Tracer, name: str, category: str, attrs: tuple[tuple[str, AttrValue], ...]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs
        self._start = 0.0
        self._span_id = 0
        self._parent_id: int | None = None
        self._depth = 0

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack
        self._parent_id = stack[-1] if stack else None
        self._depth = len(stack)
        self._span_id = next(tracer._ids)
        stack.append(self._span_id)
        # Start the clock last so setup cost stays outside the span.
        self._start = _clock()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = _clock()
        tracer = self._tracer
        tracer._stack.pop()
        tracer._spans.append(
            Span(
                name=self._name,
                category=self._category,
                start=self._start,
                end=end,
                pid=tracer._pid,
                tid=tracer._pid,
                span_id=self._span_id,
                parent_id=self._parent_id,
                depth=self._depth,
                attrs=self._attrs,
            )
        )


class Tracer:
    """Collects the :class:`Span` records of one process's thread.

    Not for sharing across threads: the library runs one thread per
    process (DESIGN.md §10).
    """

    enabled = True

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._spans: list[Span] = []

    def span(self, name: str, category: str = "misc", **attrs: AttrValue) -> _SpanScope:
        """Open a span; use as ``with tracer.span("solve", strategy=s): ...``."""
        items = tuple(sorted(attrs.items())) if attrs else ()
        return _SpanScope(self, name, category, items)

    def absorb(self, spans: Iterable[Span]) -> None:
        """Adopt spans recorded by another tracer (a work unit's).

        Foreign ids are remapped into this tracer's counter: a reused pool
        worker rebuilds its tracer per work unit, so its ids restart at 1
        and ``(pid, span_id)`` would collide across payloads — which would
        silently corrupt self-time attribution.  One absorb call is one
        self-contained forest, so rewriting ids and the parent links that
        point at them preserves nesting exactly; a ``parent_id`` whose span
        was not collected becomes a root, matching how the profiler treats
        truncated buffers.

        A forest recorded in this process ran inside the span open now (a
        serial unit inside its ``campaign``), so its roots are parented
        under that span and every depth moves down by the open stack's.
        A pool worker's forest keeps its own pid lane and its roots.
        """
        batch = list(spans)
        mapping = {span.span_id: next(self._ids) for span in batch}
        stack = self._stack
        remapped = []
        for span in batch:
            parent = None if span.parent_id is None else mapping.get(span.parent_id)
            depth = span.depth
            if stack and span.pid == self._pid:
                if parent is None:
                    parent = stack[-1]
                depth += len(stack)
            remapped.append(
                replace(
                    span, span_id=mapping[span.span_id], parent_id=parent, depth=depth
                )
            )
        self._spans.extend(remapped)

    def collect(self) -> tuple[Span, ...]:
        """Recorded and absorbed spans as one deterministically-ordered tuple.

        Sorted by ``(start, depth, pid, span_id)``: start time first so the
        timeline reads chronologically, depth second so an enclosing span
        sorts before children that started the same instant.
        """
        return tuple(
            sorted(self._spans, key=lambda s: (s.start, s.depth, s.pid, s.span_id))
        )

    def clear(self) -> None:
        """Drop all recorded spans."""
        self._spans.clear()


class _NullScope:
    """Shared no-op context manager; a single instance serves every call."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SCOPE = _NullScope()


class NullTracer:
    """Zero-overhead tracer: every span is the same shared no-op scope."""

    enabled = False

    def span(self, name: str, category: str = "misc", **attrs: AttrValue) -> _NullScope:
        return _NULL_SCOPE

    def collect(self) -> tuple[Span, ...]:
        return ()

    def absorb(self, spans: Iterable[Span]) -> None:
        return None

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()
"""Module-level singleton used wherever tracing is disabled."""

