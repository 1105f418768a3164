"""Exporters: Chrome trace-event JSON and JSONL event sinks.

Chrome trace-event format
-------------------------
Each span becomes a matched pair of duration events — ``{"ph": "B"}`` at the
start and ``{"ph": "E"}`` at the end — with microsecond ``ts`` relative to
the earliest span in the trace, keyed by ``pid``/``tid`` so every process
(and every lane of a simulated run) renders as its own track.  The resulting object
(``{"traceEvents": [...], "displayTimeUnit": "ms"}``) loads directly into
``chrome://tracing`` or https://ui.perfetto.dev.

Event ordering matters to viewers: within one (pid, tid) track, events are
sorted by timestamp, and at *equal* timestamps E-events precede B-events
(close before open) with deeper spans closing first and shallower spans
opening first — exactly the order a correctly-nested stack unwinds and
rewinds.  :func:`validate_chrome_trace` checks these invariants; it is the
oracle the test suite holds every exported trace to.

JSONL sink
----------
One self-describing JSON object per line (``{"type": "span", ...}`` /
``{"type": "counter", ...}``), suitable for ``jq`` and ad-hoc analysis
without loading a whole trace into memory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .clock import wall
from .metrics import MetricsSnapshot
from .span import Span

__all__ = [
    "spans_to_chrome_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "validate_chrome_trace",
]

_VALID_PHASES = frozenset({"B", "E", "X", "M"})


def _event_sort_key(event: dict[str, Any]) -> tuple[int, int, float, int, int]:
    """Stable viewer-friendly order; see module docstring."""
    phase_rank = 0 if event["ph"] == "E" else 1
    depth = int(event["args"].get("depth", 0))
    # E: deeper spans close first (larger depth earlier → negate).
    # B: shallower spans open first (smaller depth earlier).
    depth_rank = -depth if event["ph"] == "E" else depth
    return (event["pid"], event["tid"], event["ts"], phase_rank, depth_rank)


def spans_to_chrome_events(spans: tuple[Span, ...] | list[Span]) -> list[dict[str, Any]]:
    """Convert spans into a sorted list of matched B/E duration events."""
    if not spans:
        return []
    origin = min(span.start for span in spans)
    events: list[dict[str, Any]] = []
    for span in spans:
        args: dict[str, Any] = dict(span.attrs)
        args["depth"] = span.depth
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        common = {
            "name": span.name,
            "cat": span.category,
            "pid": span.pid,
            "tid": span.tid,
        }
        events.append(
            {**common, "ph": "B", "ts": (span.start - origin) * 1e6, "args": args}
        )
        events.append(
            {**common, "ph": "E", "ts": (span.end - origin) * 1e6, "args": args}
        )
    events.sort(key=_event_sort_key)
    return events


def to_chrome_trace(
    spans: tuple[Span, ...] | list[Span],
    metrics: MetricsSnapshot | None = None,
) -> dict[str, Any]:
    """Full chrome://tracing-loadable document for ``spans``."""
    document: dict[str, Any] = {
        "traceEvents": spans_to_chrome_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "exported_at": wall()},
    }
    if metrics is not None and not metrics.empty:
        document["otherData"]["counters"] = dict(metrics.counters)
    return document


def write_chrome_trace(
    path: str | Path,
    spans: tuple[Span, ...] | list[Span],
    metrics: MetricsSnapshot | None = None,
) -> Path:
    """Serialise :func:`to_chrome_trace` to ``path``; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_chrome_trace(spans, metrics), indent=1))
    return target


def write_events_jsonl(
    path: str | Path,
    spans: tuple[Span, ...] | list[Span],
    metrics: MetricsSnapshot | None = None,
) -> Path:
    """Write one JSON object per line: a header, spans, then metric events."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as sink:
        header = {"type": "header", "format": "repro-obs-jsonl", "version": 1, "exported_at": wall()}
        sink.write(json.dumps(header) + "\n")
        for span in spans:
            record = {
                "type": "span",
                "name": span.name,
                "cat": span.category,
                "start": span.start,
                "end": span.end,
                "duration": span.duration,
                "pid": span.pid,
                "tid": span.tid,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "depth": span.depth,
                "attrs": dict(span.attrs),
            }
            sink.write(json.dumps(record) + "\n")
        if metrics is not None:
            for name, value in metrics.counters:
                sink.write(json.dumps({"type": "counter", "name": name, "value": value}) + "\n")
            for name, value in metrics.gauges:
                sink.write(json.dumps({"type": "gauge", "name": name, "value": value}) + "\n")
            for name, stats in metrics.histograms:
                record = {
                    "type": "histogram",
                    "name": name,
                    "count": stats.count,
                    "total": stats.total,
                    "min": stats.minimum,
                    "max": stats.maximum,
                    "mean": stats.mean,
                }
                sink.write(json.dumps(record) + "\n")
    return target


def validate_chrome_trace(document: Any) -> list[str]:
    """Validate trace-event structural invariants; returns problems (empty = valid).

    Checks: top-level shape, required event fields, known phases,
    non-negative timestamps, per-track ts monotonicity, and — per
    (pid, tid) track — that B/E events nest as a well-formed stack with
    matching names and no dangling opens.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]

    stacks: dict[tuple[int, int], list[str]] = {}
    last_ts: dict[tuple[int, int], float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        missing = [key for key in ("name", "ph", "ts", "pid", "tid") if key not in event]
        if missing:
            problems.append(f"event {index}: missing fields {missing}")
            continue
        phase = event["ph"]
        if phase not in _VALID_PHASES:
            problems.append(f"event {index}: unknown phase {phase!r}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index}: bad ts {ts!r}")
            continue
        track = (event["pid"], event["tid"])
        if track in last_ts and ts < last_ts[track]:
            problems.append(
                f"event {index}: ts {ts} < previous {last_ts[track]} on track {track}"
            )
        last_ts[track] = float(ts)
        if phase == "B":
            stacks.setdefault(track, []).append(str(event["name"]))
        elif phase == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {index}: E with empty stack on track {track}")
            else:
                opened = stack.pop()
                if opened != event["name"]:
                    problems.append(
                        f"event {index}: E name {event['name']!r} does not match open span {opened!r}"
                    )
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} unterminated span(s): {stack}")
    return problems
