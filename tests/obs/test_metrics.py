"""Tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pickle

from repro.obs.metrics import NULL_METRICS, HistogramStats, MetricsRegistry


class TestCounters:
    def test_add_and_read(self):
        registry = MetricsRegistry()
        registry.add("memo.hits")
        registry.add("memo.hits", 4.0)
        assert registry.counter("memo.hits") == 5.0
        assert registry.counter("never.touched") == 0.0
        assert registry.counters() == {"memo.hits": 5.0}


class TestHistograms:
    def test_observe_tracks_count_total_min_max(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.observe("solve.seconds.herad", value)
        ((name, stats),) = registry.snapshot().histograms
        assert name == "solve.seconds.herad"
        assert stats == HistogramStats(count=3, total=6.0, minimum=1.0, maximum=3.0)
        assert stats.mean == 2.0

    def test_merged_is_exact(self):
        a = HistogramStats(count=2, total=3.0, minimum=1.0, maximum=2.0)
        b = HistogramStats(count=1, total=5.0, minimum=5.0, maximum=5.0)
        merged = a.merged(b)
        assert merged == HistogramStats(count=3, total=8.0, minimum=1.0, maximum=5.0)

    def test_merged_with_empty_is_identity(self):
        stats = HistogramStats(count=2, total=3.0, minimum=1.0, maximum=2.0)
        empty = HistogramStats(count=0, total=0.0, minimum=0.0, maximum=0.0)
        assert stats.merged(empty) == stats
        assert empty.merged(stats) == stats


class TestSnapshotAndMerge:
    def test_snapshot_is_sorted_and_picklable(self):
        registry = MetricsRegistry()
        registry.add("z.last")
        registry.add("a.first")
        registry.set_gauge("pool.workers", 4.0)
        snapshot = registry.snapshot()
        assert [name for name, _ in snapshot.counters] == ["a.first", "z.last"]
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_identical_state_pickles_to_identical_bytes(self):
        def build():
            registry = MetricsRegistry()
            registry.add("b")
            registry.add("a", 2.0)
            registry.observe("h", 1.5)
            return registry.snapshot()

        assert pickle.dumps(build()) == pickle.dumps(build())

    def test_split_work_merges_to_the_serial_answer(self):
        """Counters from two 'workers' merge to exactly one registry's view."""
        serial = MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        for i in range(10):
            serial.add("solve.count")
            serial.observe("latency", float(i))
            workers[i % 2].add("solve.count")
            workers[i % 2].observe("latency", float(i))
        merged = MetricsRegistry()
        for worker in workers:
            merged.merge(worker.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_gauge_merge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("jobs", 1.0)
        other = MetricsRegistry()
        other.set_gauge("jobs", 4.0)
        registry.merge(other.snapshot())
        assert dict(registry.snapshot().gauges) == {"jobs": 4.0}

    def test_empty_property(self):
        assert MetricsRegistry().snapshot().empty
        registry = MetricsRegistry()
        registry.add("x")
        assert not registry.snapshot().empty


class TestNullMetrics:
    def test_everything_is_a_no_op(self):
        NULL_METRICS.add("x")
        NULL_METRICS.set_gauge("g", 1.0)
        NULL_METRICS.observe("h", 1.0)
        assert NULL_METRICS.counter("x") == 0.0
        assert NULL_METRICS.counters() == {}
        assert NULL_METRICS.snapshot().empty
        assert NULL_METRICS.enabled is False
