"""Tests for the trace exporters (repro.obs.export)."""

from __future__ import annotations

import json

from repro.obs.export import (
    spans_to_chrome_events,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def _nested_spans():
    tracer = Tracer()
    with tracer.span("campaign", "campaign"):
        with tracer.span("unit", "engine", tier="serial"):
            with tracer.span("solve", "solve", strategy="herad"):
                pass
            with tracer.span("solve", "solve", strategy="fertac"):
                pass
    return tracer.collect()


class TestChromeEvents:
    def test_matched_be_pairs(self):
        events = spans_to_chrome_events(_nested_spans())
        assert len(events) == 8  # 4 spans x B+E
        assert sum(1 for e in events if e["ph"] == "B") == 4
        assert sum(1 for e in events if e["ph"] == "E") == 4

    def test_ts_is_relative_and_nonnegative(self):
        events = spans_to_chrome_events(_nested_spans())
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["ts"] >= 0 for e in events)

    def test_args_carry_depth_and_parent(self):
        events = spans_to_chrome_events(_nested_spans())
        solve_b = [e for e in events if e["name"] == "solve" and e["ph"] == "B"]
        assert all(e["args"]["depth"] == 2 for e in solve_b)
        assert all("parent" in e["args"] for e in solve_b)
        campaign_b = next(e for e in events if e["name"] == "campaign" and e["ph"] == "B")
        assert "parent" not in campaign_b["args"]

    def test_empty_spans_export_empty(self):
        assert spans_to_chrome_events([]) == []
        assert to_chrome_trace([])["traceEvents"] == []


class TestValidation:
    def test_real_trace_is_valid(self):
        document = to_chrome_trace(_nested_spans())
        assert validate_chrome_trace(document) == []

    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) == ["document is not a JSON object"]
        assert validate_chrome_trace({"nope": 1}) == [
            "traceEvents is missing or not a list"
        ]

    def test_rejects_missing_fields(self):
        problems = validate_chrome_trace({"traceEvents": [{"ph": "B", "ts": 0}]})
        assert any("missing fields" in p for p in problems)

    def test_rejects_unknown_phase(self):
        event = {"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1}
        problems = validate_chrome_trace({"traceEvents": [event]})
        assert any("unknown phase" in p for p in problems)

    def test_rejects_ts_regression_within_a_track(self):
        events = [
            {"name": "a", "ph": "B", "ts": 10, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 1},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("ts 5" in p for p in problems)

    def test_rejects_dangling_open(self):
        events = [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1}]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("unterminated" in p for p in problems)

    def test_rejects_mismatched_close(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("does not match" in p for p in problems)

    def test_rejects_close_with_empty_stack(self):
        events = [{"name": "a", "ph": "E", "ts": 0, "pid": 1, "tid": 1}]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("empty stack" in p for p in problems)


class TestFileExporters:
    def test_write_chrome_trace_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.add("memo.hits", 3.0)
        path = write_chrome_trace(
            tmp_path / "trace.json", _nested_spans(), registry.snapshot()
        )
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["counters"] == {"memo.hits": 3.0}

    def test_write_events_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.add("n", 2.0)
        registry.set_gauge("g", 1.0)
        registry.observe("h", 0.5)
        path = write_events_jsonl(
            tmp_path / "events.jsonl", _nested_spans(), registry.snapshot()
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "header"
        kinds = [record["type"] for record in records]
        assert kinds.count("span") == 4
        assert "counter" in kinds and "gauge" in kinds and "histogram" in kinds
        histogram = next(r for r in records if r["type"] == "histogram")
        assert histogram["count"] == 1 and histogram["mean"] == 0.5
