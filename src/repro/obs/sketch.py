"""Deterministic log-bucket quantile sketches with exact cross-process merge.

:class:`HistogramStats` carries count/total/min/max — enough for means, not
tails.  This module adds a DDSketch-style log-bucket histogram so the obs
layer can answer p50/p90/p99 questions, under the same contract as the rest
of the registry: *merging worker snapshots loses nothing*.

Design constraints, in order:

1. **Deterministic bucketing.**  The bucket of a value is a pure function of
   the value and ``alpha`` (``ceil(log(v) / log(gamma))`` with
   ``gamma = (1 + alpha) / (1 - alpha)``).  Same observation, same bucket, in
   every process on the machine.

2. **Exact, order-independent merge.**  A sketch is a bag of integer bucket
   counts plus exact min/max.  Merge is bucket-wise integer addition — it
   commutes and associates, so a ``--jobs 4`` campaign whose workers sketch
   disjoint slices of an observation stream merges to the *bitwise-identical*
   snapshot a serial run produces.  Deliberately absent: a float ``total``
   (float summation is order-dependent; :class:`HistogramStats` already
   carries one for means).

3. **Quantiles at read time.**  ``quantile(q)`` is a pure function of the
   merged bucket counts, so merged-then-queried equals queried-on-the-whole-
   stream by construction — the property tests in ``tests/obs/test_sketch.py``
   pin this.

Within a bucket the reported value is the geometric midpoint, giving a
relative error of at most ``alpha`` for positive observations.  Zero and
negative observations (latencies are never negative, but counters of work
sizes can be zero) collapse into a dedicated zero bucket reported as ``0.0``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_ALPHA",
    "SketchSnapshot",
    "SketchBuilder",
    "bucket_index",
    "bucket_value",
    "sketch_of",
]

DEFAULT_ALPHA = 0.01
"""Default relative accuracy: quantiles are exact to within 1%."""


def _gamma(alpha: float) -> float:
    return (1.0 + alpha) / (1.0 - alpha)


def bucket_index(value: float, alpha: float = DEFAULT_ALPHA) -> int:
    """Bucket of a positive ``value``: deterministic, monotone in ``value``."""
    return math.ceil(math.log(value) / math.log(_gamma(alpha)))


def bucket_value(index: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Representative value of bucket ``index``: the geometric midpoint."""
    gamma = _gamma(alpha)
    return (gamma**index) * 2.0 / (gamma + 1.0)


@dataclass(frozen=True, slots=True)
class SketchSnapshot:
    """Immutable, picklable log-bucket sketch.

    ``buckets`` maps bucket index to an integer observation count, stored as
    a tuple sorted by index so identical state pickles to identical bytes.
    ``minimum``/``maximum`` are the exact extremes (min/max merge exactly),
    used to clamp quantile answers to the observed range.
    """

    alpha: float = DEFAULT_ALPHA
    count: int = 0
    zero_count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    buckets: tuple[tuple[int, int], ...] = ()

    @property
    def empty(self) -> bool:
        return self.count == 0

    def merged(self, other: "SketchSnapshot") -> "SketchSnapshot":
        """Exact merge: bucket-wise integer sum. Commutative and associative."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        if self.alpha != other.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha: "
                f"{self.alpha} vs {other.alpha}"
            )
        combined = dict(self.buckets)
        for index, bucket_count in other.buckets:
            combined[index] = combined.get(index, 0) + bucket_count
        return SketchSnapshot(
            alpha=self.alpha,
            count=self.count + other.count,
            zero_count=self.zero_count + other.zero_count,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            buckets=tuple(sorted(combined.items())),
        )

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, a pure function of the merged bucket counts.

        ``q`` is clamped to [0, 1].  Returns 0.0 for an empty sketch.
        """
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        rank = max(1, math.ceil(q * self.count))
        seen = self.zero_count
        if rank <= seen:
            return self._clamp(0.0)
        for index, bucket_count in self.buckets:
            seen += bucket_count
            if rank <= seen:
                return self._clamp(bucket_value(index, self.alpha))
        return self.maximum

    def _clamp(self, value: float) -> float:
        return min(self.maximum, max(self.minimum, value))

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


@dataclass(slots=True)
class SketchBuilder:
    """Mutable accumulator behind :class:`SketchSnapshot`.

    Holds no lock, like the :class:`~repro.obs.metrics.MetricsRegistry`
    that owns it: the library runs one thread per process (DESIGN.md §10).
    """

    alpha: float = DEFAULT_ALPHA
    count: int = 0
    zero_count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)
    _log_gamma: float = 0.0

    def __post_init__(self) -> None:
        self._log_gamma = math.log(_gamma(self.alpha))

    def observe(self, value: float) -> None:
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if value <= 0.0:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def absorb(self, snapshot: SketchSnapshot) -> None:
        """Fold a worker snapshot in (bucket-wise integer sum)."""
        if snapshot.count == 0:
            return
        if snapshot.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha: "
                f"{self.alpha} vs {snapshot.alpha}"
            )
        self.count += snapshot.count
        self.zero_count += snapshot.zero_count
        self.minimum = min(self.minimum, snapshot.minimum)
        self.maximum = max(self.maximum, snapshot.maximum)
        for index, bucket_count in snapshot.buckets:
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    def snapshot(self) -> SketchSnapshot:
        return SketchSnapshot(
            alpha=self.alpha,
            count=self.count,
            zero_count=self.zero_count,
            minimum=self.minimum,
            maximum=self.maximum,
            buckets=tuple(sorted(self.buckets.items())),
        )


def sketch_of(values: Iterable[float], alpha: float = DEFAULT_ALPHA) -> SketchSnapshot:
    """One-shot sketch of a finished value stream (sim reports)."""
    builder = SketchBuilder(alpha=alpha)
    for value in values:
        builder.observe(value)
    return builder.snapshot()
