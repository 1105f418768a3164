"""Metrics registry: counters, gauges, histograms — with exact cross-process merge.

The design constraint is *exactness across worker processes*: a ``--jobs 4``
process-tier campaign must report the same retry/quarantine/memo counters as
the serial run.  That rules out sampling or lossy aggregation — each worker
snapshots its registry into a picklable :class:`MetricsSnapshot`, ships it
home inside the unit result, and the engine :meth:`MetricsRegistry.merge`\\ s
it: counters sum, histograms combine (count/total/min/max are all exactly
mergeable), gauges last-write-wins.  Mean and other derived statistics are
computed only at read time, so merging never loses information.

Every :meth:`MetricsRegistry.observe` additionally feeds a deterministic
log-bucket sketch (:mod:`repro.obs.sketch`) under the same name, so every
histogram is quantile-grade: ``snapshot().sketches`` answers p50/p90/p99 at
read time, and sketches of deterministic observation streams merge to
*bitwise-identical* snapshots across serial and ``--jobs N`` tiers (integer
bucket counts have no float-summation order dependence).

Naming convention: dotted lowercase paths (``memo.hits``,
``solve.seconds.herad``, ``binary_search.iterations``) so the RunReport can
group related metrics by prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .sketch import SketchBuilder, SketchSnapshot

__all__ = [
    "HistogramStats",
    "MetricsSnapshot",
    "MetricsLike",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


@dataclass(frozen=True, slots=True)
class HistogramStats:
    """Exactly-mergeable summary of an observed distribution."""

    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "HistogramStats") -> "HistogramStats":
        if not other.count:
            return self
        if not self.count:
            return other
        return HistogramStats(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Immutable, picklable point-in-time copy of a registry.

    Stored as sorted tuples (not dicts) so two snapshots of identical state
    pickle to identical bytes.
    """

    counters: tuple[tuple[str, float], ...] = ()
    gauges: tuple[tuple[str, float], ...] = ()
    histograms: tuple[tuple[str, HistogramStats], ...] = ()
    sketches: tuple[tuple[str, SketchSnapshot], ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def sketch(self, name: str) -> SketchSnapshot | None:
        for key, value in self.sketches:
            if key == name:
                return value
        return None


class MetricsLike(Protocol):
    """Structural interface shared by :class:`MetricsRegistry` and :class:`NullMetrics`."""

    enabled: bool

    def add(self, name: str, value: float = ...) -> None: ...

    def set_gauge(self, name: str, value: float) -> None: ...

    def observe(self, name: str, value: float) -> None: ...

    def sketch(self, name: str) -> SketchSnapshot | None: ...

    def snapshot(self) -> MetricsSnapshot: ...

    def merge(self, snapshot: MetricsSnapshot) -> None: ...


class MetricsRegistry:
    """Counters/gauges/histograms of one process's thread.

    Not for sharing across threads: the library runs one thread per
    process (DESIGN.md §10), and worker processes ship snapshots home
    instead.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramStats] = {}
        self._sketches: dict[str, SketchBuilder] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins on merge)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name`` and its sketch."""
        prior = self._histograms.get(name)
        if prior is None:
            self._histograms[name] = HistogramStats(1, value, value, value)
        else:
            self._histograms[name] = HistogramStats(
                count=prior.count + 1,
                total=prior.total + value,
                minimum=min(prior.minimum, value),
                maximum=max(prior.maximum, value),
            )
        builder = self._sketches.get(name)
        if builder is None:
            builder = self._sketches[name] = SketchBuilder()
        builder.observe(value)

    def sketch(self, name: str) -> SketchSnapshot | None:
        """Current sketch for histogram ``name`` (None if never observed)."""
        builder = self._sketches.get(name)
        return builder.snapshot() if builder is not None else None

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> dict[str, float]:
        """Copy of all counters."""
        return dict(self._counters)

    def snapshot(self) -> MetricsSnapshot:
        """Picklable copy of the full registry state."""
        return MetricsSnapshot(
            counters=tuple(sorted(self._counters.items())),
            gauges=tuple(sorted(self._gauges.items())),
            histograms=tuple(sorted(self._histograms.items())),
            sketches=tuple(
                sorted(
                    (name, builder.snapshot())
                    for name, builder in self._sketches.items()
                )
            ),
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker snapshot in: counters sum, histograms combine."""
        for name, value in snapshot.counters:
            self._counters[name] = self._counters.get(name, 0.0) + value
        for name, value in snapshot.gauges:
            self._gauges[name] = value
        for name, stats in snapshot.histograms:
            prior = self._histograms.get(name)
            self._histograms[name] = stats if prior is None else prior.merged(stats)
        for name, sk in snapshot.sketches:
            builder = self._sketches.get(name)
            if builder is None:
                builder = self._sketches[name] = SketchBuilder(alpha=sk.alpha)
            builder.absorb(sk)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._sketches.clear()


class NullMetrics:
    """Zero-overhead registry: every operation is a constant-time no-op."""

    enabled = False

    def add(self, name: str, value: float = 1.0) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def sketch(self, name: str) -> SketchSnapshot | None:
        return None

    def counter(self, name: str) -> float:
        return 0.0

    def counters(self) -> dict[str, float]:
        return {}

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def merge(self, snapshot: MetricsSnapshot) -> None:
        return None

    def clear(self) -> None:
        return None


NULL_METRICS = NullMetrics()
"""Module-level singleton used wherever metrics are disabled."""
