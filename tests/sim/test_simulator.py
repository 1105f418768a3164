"""End-to-end simulator tests: acceptance storm, determinism, resume, export."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import validate_chrome_trace
from repro.sim import (
    SimConfig,
    SimEvent,
    SimJournal,
    SimTrace,
    bursty_trace,
    diurnal_trace,
    failure_storm_trace,
    sim_spans,
    simulate,
    write_sim_trace,
)
from repro.core.errors import CertificationError, InvalidParameterError
from repro.core.task import TaskChain


def _max_concurrent_downs(result):
    """Peak number of simultaneously down cores over the run."""
    edges = []
    for interval in result.down_intervals:
        edges.append((interval.start, 1))
        edges.append((interval.end, -1))
    edges.sort()
    peak = level = 0
    for _, delta in edges:
        level += delta
        peak = max(peak, level)
    return peak


class TestFailureStormAcceptance:
    """The ISSUE acceptance scenario, certified."""

    @pytest.fixture(scope="class")
    def result(self):
        return simulate(failure_storm_trace(seed=7), SimConfig(certify=True))

    def test_storm_has_three_overlapping_core_failures(self, result):
        assert _max_concurrent_downs(result) >= 3

    def test_zero_scheduleless_intervals(self, result):
        assert result.scheduleless_intervals == 0

    def test_zero_overcommit(self, result):
        assert result.overcommit_events == 0

    def test_warm_full_and_shed_all_exercised_and_counted(self, result):
        assert result.counter("sim.resched.warm") > 0
        assert result.counter("sim.resched.full") > 0
        assert result.counter("sim.resched.shed") > 0

    def test_every_event_processed(self, result):
        assert result.num_events == failure_storm_trace(seed=7).num_events

    def test_platform_recovers_by_the_end(self, result):
        assert result.records[-1].availability == 1.0

    def test_survivors_hold_finite_periods(self, result):
        scheduled = [p for _, p in result.final_periods if p is not None]
        assert scheduled and all(p > 0 for p in scheduled)
        assert result.aggregate_throughput() > 0


class TestDeterminism:
    def test_identical_runs_are_bitwise_identical(self):
        trace = failure_storm_trace(seed=3)
        a = simulate(trace, SimConfig(certify=True))
        b = simulate(trace, SimConfig(certify=True))
        assert a.records == b.records
        assert a.metrics.counters == b.metrics.counters
        assert a.final_periods == b.final_periods
        assert a.down_intervals == b.down_intervals

    def test_journal_presence_does_not_change_results(self, tmp_path):
        trace = bursty_trace(40, seed=1)
        bare = simulate(trace)
        journaled = simulate(trace, journal=tmp_path / "j.jsonl")
        assert bare.records == journaled.records
        assert bare.metrics.counters == journaled.metrics.counters

    def test_wall_clock_latencies_are_kept_apart(self):
        trace = failure_storm_trace(seed=3)
        result = simulate(trace)
        # One latency sample per live-processed event, none in the records.
        assert len(result.resched_seconds) == result.num_events


class TestJournalResume:
    def test_interrupt_and_resume_is_bitwise_identical(self, tmp_path):
        trace = failure_storm_trace(seed=7)
        reference = simulate(trace, SimConfig(certify=True))
        journal = tmp_path / "run.jsonl"
        partial = simulate(
            trace, SimConfig(certify=True), journal=journal, stop_after=9
        )
        assert partial.num_events == 9
        resumed = simulate(trace, SimConfig(certify=True), journal=journal)
        assert resumed.records == reference.records
        assert resumed.metrics.counters == reference.metrics.counters
        assert resumed.final_periods == reference.final_periods

    @pytest.mark.parametrize("stop_after", [9, None])
    def test_resumed_metrics_are_the_whole_snapshot(self, tmp_path, stop_after):
        """Replayed events feed ``sim.resched.cost`` and ``sim.active_chains``
        too: before PR 21 a resumed run's histogram held only the live
        events, and a fully replayed run had no active-chains gauge."""
        trace = failure_storm_trace(seed=7)
        reference = simulate(trace, SimConfig(deadline=12))
        journal = tmp_path / "run.jsonl"
        simulate(trace, SimConfig(deadline=12), journal=journal, stop_after=stop_after)
        resumed = simulate(trace, SimConfig(deadline=12), journal=journal)
        assert resumed.metrics == reference.metrics

    def test_resume_tolerates_torn_final_line(self, tmp_path):
        trace = failure_storm_trace(seed=7)
        reference = simulate(trace)
        journal = tmp_path / "run.jsonl"
        simulate(trace, journal=journal, stop_after=9)
        text = journal.read_text()
        journal.write_text(text[: len(text) - 30])  # tear the 9th record
        resumed = simulate(trace, journal=journal)
        assert resumed.records == reference.records

    def test_interrupted_resume_after_a_torn_line_keeps_every_record(self, tmp_path):
        """Tear -> interrupted resume -> resume: the first appended record
        must not be glued onto the torn tail, or no later run resumes past it."""
        trace = failure_storm_trace(seed=7)
        journal = tmp_path / "run.jsonl"
        simulate(trace, journal=journal, stop_after=9)
        text = journal.read_text()
        journal.write_text(text[: len(text) - 30])  # tear the 9th record
        for stop_after in (14, None):
            result = simulate(trace, journal=journal, stop_after=stop_after)
            lines = journal.read_text().splitlines()
            assert len(lines) == result.num_events == len(SimJournal(journal).load())
        assert result.records == simulate(trace).records

    def test_journal_rows_round_trip_exactly(self, tmp_path):
        trace = failure_storm_trace(seed=7)
        journal_path = tmp_path / "run.jsonl"
        result = simulate(trace, journal=journal_path)
        loaded = SimJournal(journal_path).load()
        assert tuple(loaded.values()) == result.records
        assert list(loaded) == list(range(1, result.num_events + 1))

    def test_a_tampered_journal_line_fails_its_audit(self, tmp_path):
        trace = failure_storm_trace(seed=7)
        journal = tmp_path / "run.jsonl"
        simulate(trace, journal=journal, stop_after=6)
        rows = [json.loads(line) for line in journal.read_text().splitlines()]
        (decision, *_) = [
            d for d in rows[4]["decisions"] if d["action"] != "shed"
        ]
        decision["period"] /= 2
        journal.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(CertificationError, match=r"run\.jsonl, line 5: .*period"):
            simulate(trace, journal=journal)

    def test_wrong_journal_is_rejected(self, tmp_path):
        long_trace = bursty_trace(30, seed=0)
        journal = tmp_path / "run.jsonl"
        simulate(long_trace, journal=journal)
        short_trace = failure_storm_trace(seed=0)
        with pytest.raises(InvalidParameterError, match="journal"):
            simulate(short_trace, journal=journal)

    def test_stop_after_limits_processing(self):
        trace = bursty_trace(50, seed=2)
        result = simulate(trace, stop_after=10)
        assert result.num_events == 10


class TestInvariantsAcrossWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bursty_never_scheduleless(self, seed):
        result = simulate(bursty_trace(60, seed=seed))
        assert result.scheduleless_intervals == 0
        assert result.overcommit_events == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_diurnal_never_scheduleless(self, seed):
        result = simulate(diurnal_trace(60, seed=seed))
        assert result.scheduleless_intervals == 0
        assert result.overcommit_events == 0

    def test_deadline_bounded_storm_stays_feasible(self):
        result = simulate(failure_storm_trace(seed=7), SimConfig(deadline=16.0))
        assert result.scheduleless_intervals == 0
        assert result.overcommit_events == 0


class TestPlatformEvents:
    """Core failures and recoveries are plain trace events."""

    def test_platform_events_shape_the_run(self):
        chain = TaskChain.from_weights(
            [4, 10, 3], [9, 21, 8], [True, True, False], name="alpha"
        )
        trace = SimTrace(
            initial_counts=(2, 2),
            events=(
                SimEvent("chain_arrival", 0.0, chain=chain),
                SimEvent("core_failure", 5.0, core_type=0, cores=2),
                SimEvent("core_recovery", 9.0, core_type=0, cores=2),
            ),
        )
        result = simulate(trace)
        availabilities = [r.availability for r in result.records]
        assert availabilities == [1.0, 0.5, 1.0]
        assert result.scheduleless_intervals == 0


class TestChromeExport:
    def test_trace_is_valid_and_has_core_lanes(self, tmp_path):
        result = simulate(failure_storm_trace(seed=7))
        path = tmp_path / "sim.json"
        write_sim_trace(path, result)
        validate_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        lanes = {e["tid"] for e in events if e.get("cat") == "sim.core"}
        assert len(lanes) == len(
            {(d.core_type, d.core_index) for d in result.down_intervals}
        )
        assert any(e.get("cat") == "sim.event" for e in events)

    def test_span_ids_are_unique(self):
        result = simulate(failure_storm_trace(seed=7))
        spans = sim_spans(result)
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
