"""Tests for the trace format and generators (repro.sim.trace / .generators)."""

from __future__ import annotations

import re

import pytest

from repro.core.errors import InvalidParameterError
from repro.sim import (
    SimEvent,
    SimTrace,
    TRACE_FORMAT,
    bursty_trace,
    diurnal_trace,
    failure_storm_trace,
)
from repro.sim.trace import chain_from_payload, chain_to_payload
from repro.core.task import TaskChain


#: Two good lines of a trace file; the hostile event lines below sit on line 3.
_HEAD = (
    f'{{"format": "{TRACE_FORMAT}", "initial_counts": [3, 3]}}\n'
    '{"kind": "core_failure", "time": 1.0, "core_type": 0, "cores": 1}\n'
)


def _chain(name="c"):
    return TaskChain.from_weights([4, 10], [9, 21], [True, False], name=name)


class TestChainPayload:
    def test_round_trip_preserves_weights_and_flags(self):
        chain = _chain("alpha")
        back = chain_from_payload(chain_to_payload(chain))
        assert back.name == "alpha"
        assert back.ktype == chain.ktype
        for v in range(chain.ktype):
            assert [t.weight(v) for t in back.tasks] == [
                t.weight(v) for t in chain.tasks
            ]
        assert [t.replicable for t in back.tasks] == [
            t.replicable for t in chain.tasks
        ]


class TestSimTraceValidation:
    def test_rejects_empty_platform(self):
        with pytest.raises(InvalidParameterError, match="no cores"):
            SimTrace(initial_counts=(0, 0), events=())

    def test_rejects_time_regression(self):
        events = (
            SimEvent("core_failure", 5.0),
            SimEvent("core_failure", 4.0),
        )
        with pytest.raises(InvalidParameterError, match="non-decreasing"):
            SimTrace(initial_counts=(2, 2), events=events)


class TestTraceSerialization:
    def test_write_read_round_trip(self, tmp_path):
        trace = failure_storm_trace(seed=5)
        path = tmp_path / "trace.jsonl"
        trace.write(path)
        assert SimTrace.read(path) == trace

    def test_read_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": "something-else/9"}\n')
        with pytest.raises(InvalidParameterError, match=TRACE_FORMAT):
            SimTrace.read(path)

    @pytest.mark.parametrize(
        "content",
        [
            None,  # no such file
            b"\xff\xfe not utf-8",
            "time,kind\n0.0,arrival\n",
            '{"initial_counts": [3, 3]}\n',
            f'["{TRACE_FORMAT}"]\n',
            f'{{"format": "{TRACE_FORMAT}"}}\n',
            f'{{"format": "{TRACE_FORMAT}", "initial_counts": "3,3"}}\n',
            _HEAD + "[1, 2]\n",
            _HEAD + '{"time": 1.0}\n',
            _HEAD + '{"kind": "core_meltdown", "time": 1.0}\n',
            _HEAD + '{"kind": "core_fail\n' + _HEAD.splitlines()[1] + "\n",
        ],
        ids=["missing", "binary", "not-json", "untagged", "list", "no-counts", "bad-counts",
             "event-list", "event-no-kind", "event-unknown-kind", "torn-mid-file"],
    )
    def test_unusable_header_is_a_typed_error_naming_the_path(self, tmp_path, content):
        """... and an unusable event line names its 1-based line as well."""
        path = tmp_path / "trace.jsonl"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        where = ", line 3" if str(content).startswith(_HEAD) else ""
        with pytest.raises(InvalidParameterError, match=re.escape(f"{path}{where}")):
            SimTrace.read(path)

    def test_torn_final_line_is_dropped(self, tmp_path):
        trace = failure_storm_trace(seed=5)
        path = tmp_path / "trace.jsonl"
        trace.write(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # tear the last event line
        torn = SimTrace.read(path)
        assert torn.num_events == trace.num_events - 1
        assert torn.events == trace.events[:-1]


class TestGenerators:
    def test_same_seed_is_bitwise_identical(self):
        assert bursty_trace(80, seed=4) == bursty_trace(80, seed=4)
        assert diurnal_trace(80, seed=4) == diurnal_trace(80, seed=4)
        assert failure_storm_trace(seed=4) == failure_storm_trace(seed=4)

    def test_different_seeds_differ(self):
        assert bursty_trace(80, seed=1) != bursty_trace(80, seed=2)

    def test_event_counts_are_exact(self):
        assert bursty_trace(123, seed=0).num_events == 123
        assert diurnal_trace(77, seed=0).num_events == 77

    def test_storm_has_three_overlapping_failures(self):
        trace = failure_storm_trace(seed=0)
        failures = [e for e in trace.events if e.kind == "core_failure"]
        recoveries = [e for e in trace.events if e.kind == "core_recovery"]
        assert len(failures) >= 3
        # All three failures land before the first recovery: they overlap.
        assert max(e.time for e in failures) < min(e.time for e in recoveries)

    def test_generators_reject_single_type_platforms(self):
        with pytest.raises(InvalidParameterError, match="two core types"):
            bursty_trace(10, initial_counts=(4,))
