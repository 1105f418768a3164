"""Tests for self-time profiles and flamegraph export (repro.obs.profile)."""

from __future__ import annotations

import pytest

from repro.obs.profile import (
    aggregate_self,
    collapsed_stacks,
    leaf_attribution,
    self_seconds,
    validate_flamegraph,
    write_flamegraph,
)
from repro.obs.span import Span
from repro.obs.tracer import Tracer


def _span(name, start, end, span_id, parent_id=None, pid=1, depth=0, category="x"):
    return Span(
        name=name,
        category=category,
        start=start,
        end=end,
        pid=pid,
        tid=1,
        span_id=span_id,
        parent_id=parent_id,
        depth=depth,
    )


def _forest():
    """campaign(0..10) > unit(1..9) > solve(2..5), solve(6..8); root2(20..21)."""
    return (
        _span("campaign", 0.0, 10.0, span_id=1),
        _span("unit", 1.0, 9.0, span_id=2, parent_id=1, depth=1),
        _span("solve", 2.0, 5.0, span_id=3, parent_id=2, depth=2),
        _span("solve", 6.0, 8.0, span_id=4, parent_id=2, depth=2),
        _span("io", 20.0, 21.0, span_id=5),
    )


class TestSelfTime:
    def test_self_is_duration_minus_direct_children(self):
        selfs = self_seconds(_forest())
        assert selfs[(1, 1)] == pytest.approx(2.0)  # campaign: 10 - unit's 8
        assert selfs[(1, 2)] == pytest.approx(3.0)  # unit: 8 - (3 + 2)
        assert selfs[(1, 3)] == pytest.approx(3.0)  # leaf: own duration
        assert selfs[(1, 5)] == pytest.approx(1.0)

    def test_self_times_partition_root_inclusive_time_exactly(self):
        spans = _forest()
        total_self = sum(self_seconds(spans).values())
        total_roots = sum(s.duration for s in spans if s.parent_id is None)
        assert total_self == pytest.approx(total_roots)

    def test_same_span_ids_in_different_pids_do_not_collide(self):
        spans = (
            _span("campaign", 0.0, 4.0, span_id=1, pid=1),
            _span("unit", 0.0, 4.0, span_id=1, pid=2),  # other process's root
            _span("solve", 1.0, 2.0, span_id=2, parent_id=1, pid=2, depth=1),
        )
        selfs = self_seconds(spans)
        assert selfs[(1, 1)] == pytest.approx(4.0)  # untouched by pid 2's child
        assert selfs[(2, 1)] == pytest.approx(3.0)

    def test_negative_residue_clamps_to_zero(self):
        spans = (
            _span("parent", 0.0, 1.0, span_id=1),
            # Child longer than parent: only possible via clock quirks.
            _span("child", 0.0, 1.5, span_id=2, parent_id=1, depth=1),
        )
        assert self_seconds(spans)[(1, 1)] == 0.0

    def test_aggregate_orders_by_self_time(self):
        stats = aggregate_self(_forest())
        assert [s.name for s in stats][:2] == ["solve", "unit"]
        by_name = {s.name: s for s in stats}
        assert by_name["solve"].count == 2
        assert by_name["solve"].inclusive_seconds == pytest.approx(5.0)
        assert by_name["solve"].self_seconds == pytest.approx(5.0)
        assert by_name["campaign"].inclusive_seconds == pytest.approx(10.0)
        assert by_name["campaign"].self_seconds == pytest.approx(2.0)


class TestCollapsedStacks:
    def test_stack_paths_and_microsecond_values(self):
        stacks = collapsed_stacks(_forest())
        assert stacks == {
            "campaign": 2_000_000,
            "campaign;unit": 3_000_000,
            "campaign;unit;solve": 5_000_000,
            "io": 1_000_000,
        }

    def test_orphan_spans_root_their_own_stacks(self):
        spans = (_span("solve", 0.0, 1.0, span_id=7, parent_id=99, depth=2),)
        assert collapsed_stacks(spans) == {"solve": 1_000_000}

    def test_frame_names_are_sanitized(self):
        spans = (_span("a b;c", 0.0, 1.0, span_id=1),)
        assert list(collapsed_stacks(spans)) == ["a_b:c"]


class TestFlamegraphFile:
    def test_write_and_validate_round_trip(self, tmp_path):
        path = tmp_path / "flame.txt"
        count = write_flamegraph(str(path), _forest())
        lines = path.read_text().splitlines()
        assert count == len(lines) == 4
        assert validate_flamegraph(lines, _forest()) == []
        assert leaf_attribution(lines, _forest()) == pytest.approx(1.0)

    def test_validator_rejects_bad_grammar(self):
        spans = _forest()
        errors = validate_flamegraph(["campaign -3"], spans)
        assert any("grammar" in error for error in errors)

    def test_validator_rejects_foreign_roots(self):
        spans = _forest()
        lines = [
            "campaign 2000000",
            "campaign;unit 3000000",
            "campaign;unit;solve 5000000",
            "io 500000",
            "mystery;frame 500000",
        ]
        errors = validate_flamegraph(lines, spans)
        assert any("mystery" in error for error in errors)

    def test_validator_enforces_the_attribution_floor(self):
        spans = _forest()
        errors = validate_flamegraph(["campaign 1000000"], spans)
        assert any("95%" in error for error in errors)

    def test_traced_campaign_spans_validate_end_to_end(self, tmp_path):
        tracer = Tracer()
        with tracer.span("campaign", "campaign"):
            for _ in range(3):
                with tracer.span("solve", "solve"):
                    sum(range(50_000))
        spans = tracer.collect()
        path = tmp_path / "flame.txt"
        write_flamegraph(str(path), spans)
        lines = path.read_text().splitlines()
        assert validate_flamegraph(lines, spans) == []
        assert leaf_attribution(lines, spans) >= 0.95
