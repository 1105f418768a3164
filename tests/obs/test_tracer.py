"""Tests for the span tracer (repro.obs.tracer / repro.obs.span)."""

from __future__ import annotations

import os
import pickle

from repro.obs.span import Span
from repro.obs.tracer import NULL_TRACER, Tracer


class TestSpanRecording:
    def test_single_span_has_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("solve", "engine", strategy="herad", tier="serial"):
            pass
        (span,) = tracer.collect()
        assert span.name == "solve"
        assert span.category == "engine"
        assert span.end >= span.start
        assert span.duration == span.end - span.start
        assert span.attr_dict() == {"strategy": "herad", "tier": "serial"}
        assert span.parent_id is None
        assert span.depth == 0

    def test_nesting_links_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {span.name: span for span in tracer.collect()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].depth == 1
        assert spans["outer"].depth == 0
        # The child closed first but collect() orders by start time.
        assert tracer.collect()[0].name == "outer"

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {span.name: span for span in tracer.collect()}
        assert spans["a"].parent_id == spans["parent"].span_id
        assert spans["b"].parent_id == spans["parent"].span_id
        assert spans["a"].span_id != spans["b"].span_id

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        (span,) = tracer.collect()
        assert span.name == "doomed"
        assert span.end >= span.start

    def test_every_span_sits_on_the_process_lane(self):
        """One thread per process, so one Chrome-trace lane: ``tid`` is the
        process id."""
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert {(span.pid, span.tid) for span in tracer.collect()} == {
            (os.getpid(), os.getpid())
        }

    def test_clear_drops_spans(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.collect() == ()


class TestAbsorb:
    def test_absorbed_spans_interleave_by_start_time(self):
        local = Tracer()
        remote = Tracer()
        with remote.span("remote-early"):
            pass
        with local.span("local-late"):
            pass
        local.absorb(remote.collect())
        names = [span.name for span in local.collect()]
        assert names == ["remote-early", "local-late"]

    def test_absorb_remaps_colliding_ids_from_reused_workers(self):
        # A reused pool worker rebuilds its tracer per work unit, so two
        # payloads from the same pid arrive with identical span ids.  Absorb
        # must remap them or self-time attribution silently corrupts.
        parent = Tracer()
        payloads = []
        for _ in range(2):
            worker = Tracer()  # same pid (this process), ids restart at 1
            with worker.span("unit", "engine"):
                with worker.span("solve", "solve"):
                    pass
            payloads.append(worker.collect())
        for payload in payloads:
            parent.absorb(payload)

        spans = parent.collect()
        keys = [(span.pid, span.span_id) for span in spans]
        assert len(keys) == len(set(keys)) == 4
        # Nesting survives the remap: each solve's parent is its own unit.
        by_key = {(s.pid, s.span_id): s for s in spans}
        for span in spans:
            if span.name == "solve":
                assert by_key[(span.pid, span.parent_id)].name == "unit"

    def test_absorb_roots_spans_whose_parent_was_not_collected(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        orphan = [span for span in worker.collect() if span.name == "inner"]
        parent = Tracer()
        parent.absorb(orphan)
        (absorbed,) = parent.collect()
        assert absorbed.parent_id is None

    def test_spans_pickle_round_trip(self):
        tracer = Tracer()
        with tracer.span("unit", "engine", instances=3):
            pass
        spans = tracer.collect()
        restored = pickle.loads(pickle.dumps(spans))
        assert restored == spans
        assert isinstance(restored[0], Span)


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", attr=1):
            pass
        assert NULL_TRACER.collect() == ()
        assert NULL_TRACER.enabled is False

    def test_null_scope_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
