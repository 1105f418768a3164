"""Tests for the quantile sketches (repro.obs.sketch).

The load-bearing property is pinned by hypothesis: however an observation
stream is partitioned across "workers", merging the partial sketches yields
the *bitwise-identical* snapshot of sketching the whole stream — and
therefore identical quantiles.  Everything else (bucket math, accuracy,
registry integration) is conventional example-based coverage.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    SketchBuilder,
    SketchSnapshot,
    bucket_index,
    bucket_value,
    sketch_of,
)


class TestBucketing:
    def test_bucket_is_deterministic_and_monotone(self):
        values = [1e-9, 1e-3, 0.5, 1.0, 1.5, 2.0, 10.0, 1e6]
        indexes = [bucket_index(v) for v in values]
        assert indexes == sorted(indexes)
        assert [bucket_index(v) for v in values] == indexes  # pure function

    def test_bucket_value_has_bounded_relative_error(self):
        for value in (1e-6, 0.003, 1.0, 17.5, 42_000.0):
            representative = bucket_value(bucket_index(value))
            assert abs(representative - value) / value <= DEFAULT_ALPHA + 1e-12

    def test_zero_and_negative_go_to_the_zero_bucket(self):
        sketch = sketch_of([0.0, -1.5, 2.0])
        assert sketch.zero_count == 2
        assert sketch.count == 3
        assert sketch.minimum == -1.5
        assert sketch.maximum == 2.0


class TestQuantiles:
    def test_empty_sketch_answers_zero(self):
        empty = SketchSnapshot()
        assert empty.empty
        assert empty.quantile(0.5) == 0.0

    def test_quantiles_are_within_alpha_of_exact(self):
        values = [0.1 * (i + 1) for i in range(1000)]
        sketch = sketch_of(values)
        for q in (0.01, 0.5, 0.9, 0.99, 1.0):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            assert abs(sketch.quantile(q) - exact) / exact <= DEFAULT_ALPHA + 1e-9

    def test_quantiles_clamp_to_observed_range(self):
        sketch = sketch_of([5.0])
        assert sketch.p50 == 5.0
        assert sketch.p99 == 5.0

    def test_ordering_of_percentile_properties(self):
        sketch = sketch_of([float(i + 1) for i in range(500)])
        assert sketch.minimum <= sketch.p50 <= sketch.p90 <= sketch.p99
        assert sketch.p99 <= sketch.maximum


class TestMerge:
    def test_merge_is_exact_bucketwise_sum(self):
        left = sketch_of([1.0, 2.0, 3.0])
        right = sketch_of([3.0, 4.0])
        merged = left.merged(right)
        assert merged.count == 5
        assert dict(merged.buckets) == {
            index: dict(left.buckets).get(index, 0)
            + dict(right.buckets).get(index, 0)
            for index in {i for i, _ in left.buckets + right.buckets}
        }

    def test_merge_with_empty_is_identity(self):
        sketch = sketch_of([1.0, 2.0])
        assert sketch.merged(SketchSnapshot()) is sketch
        assert SketchSnapshot().merged(sketch) is sketch

    def test_mismatched_alpha_is_rejected(self):
        left = sketch_of([1.0], alpha=0.01)
        right = sketch_of([1.0], alpha=0.02)
        try:
            left.merged(right)
        except ValueError as exc:
            assert "alpha" in str(exc)
        else:
            raise AssertionError("merge with mismatched alpha must fail")

    def test_builder_absorb_matches_snapshot_merge(self):
        parts = ([0.1, 0.2], [0.3], [0.4, 0.5, 0.6])
        builder = SketchBuilder()
        for part in parts:
            builder.absorb(sketch_of(part))
        merged = sketch_of([v for part in parts for v in part])
        assert pickle.dumps(builder.snapshot()) == pickle.dumps(merged)


positive_floats = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestMergeProperties:
    """Hypothesis: merged partial sketches == whole-stream sketch, bitwise."""

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(positive_floats, min_size=1, max_size=200),
        cut=st.integers(min_value=0, max_value=200),
    )
    def test_split_merge_is_bitwise_identical_to_whole_stream(self, values, cut):
        cut = min(cut, len(values))
        merged = sketch_of(values[:cut]).merged(sketch_of(values[cut:]))
        whole = sketch_of(values)
        assert pickle.dumps(merged) == pickle.dumps(whole)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(positive_floats, min_size=1, max_size=200),
        cut=st.integers(min_value=0, max_value=200),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_merged_quantiles_equal_whole_stream_quantiles(self, values, cut, q):
        cut = min(cut, len(values))
        merged = sketch_of(values[:cut]).merged(sketch_of(values[cut:]))
        assert merged.quantile(q) == sketch_of(values).quantile(q)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(positive_floats, min_size=1, max_size=100))
    def test_merge_is_order_independent(self, values):
        thirds = len(values) // 3
        a = sketch_of(values[:thirds])
        b = sketch_of(values[thirds : 2 * thirds])
        c = sketch_of(values[2 * thirds :])
        forward = a.merged(b).merged(c)
        backward = c.merged(a).merged(b)
        assert pickle.dumps(forward) == pickle.dumps(backward)


class TestRegistryIntegration:
    def test_observe_feeds_a_same_name_sketch(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.04):
            registry.observe("solve.seconds.herad", value)
        sketch = registry.sketch("solve.seconds.herad")
        assert sketch is not None
        assert sketch.count == 3
        assert registry.sketch("never.observed") is None

    def test_snapshot_carries_sketches_and_merges_exactly(self):
        serial = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            serial.observe("latency", value)

        home = MetricsRegistry()
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        worker_a.observe("latency", 1.0)
        worker_a.observe("latency", 2.0)
        worker_b.observe("latency", 3.0)
        worker_b.observe("latency", 4.0)
        home.merge(worker_a.snapshot())
        home.merge(worker_b.snapshot())

        assert pickle.dumps(home.snapshot().sketches) == pickle.dumps(
            serial.snapshot().sketches
        )
        sketch = home.snapshot().sketch("latency")
        assert sketch is not None and sketch.count == 4
