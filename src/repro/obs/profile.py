"""Exclusive self-time profiles and collapsed-stack flamegraphs over spans.

The span buffers record *inclusive* time: a ``campaign`` span covers every
``solve`` nested under it.  :class:`~repro.obs.report.RunReport` time sinks
therefore double-count by construction.  This module derives the exclusive
view from the same buffers — no extra instrumentation, no sampling:

* :func:`self_seconds` — per-span exclusive time, defined as the span's
  inclusive duration minus the summed durations of its *direct* children
  (``parent_id`` links are per-process).  The definition is an
  exact partition: summed over a span forest, self time equals the summed
  inclusive time of the roots, which is why the flamegraph validator can
  demand >= 95% of traced wall-clock attributed to leaf frames — anything
  less means the exporter dropped frames, not that the math is lossy.
* :func:`aggregate_self` — (name, category) totals with both inclusive and
  exclusive columns, consumed by the RunReport time-sink table.
* :func:`collapsed_stacks` / :func:`write_flamegraph` — Brendan Gregg
  collapsed-stack format (``root;child;leaf <count>`` with integer
  microsecond counts), renderable by ``flamegraph.pl``, speedscope, or any
  d3-flamegraph viewer.
* :func:`validate_flamegraph` — the structural oracle the tests hold every
  written flamegraph to: line grammar, stack roots matching span roots, and
  the >= 95% attribution floor.

Time spent inside a span but outside all of its children (scheduling glue,
loop overhead) is attributed to the interior frame itself — a standard
collapsed-stack convention: a stack path may appear both as a prefix of
deeper paths and as a leaf line carrying its own self time.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .span import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = [
    "FrameStat",
    "self_seconds",
    "aggregate_self",
    "collapsed_stacks",
    "write_flamegraph",
    "validate_flamegraph",
    "leaf_attribution",
]

_SpanKey = tuple[int, int]
"""Process-unique span key: (pid, span_id).  span_ids are per-process."""


@dataclass(frozen=True, slots=True)
class FrameStat:
    """Aggregated inclusive + exclusive time for one (name, category) frame."""

    name: str
    category: str
    count: int
    inclusive_seconds: float
    self_seconds: float


def self_seconds(spans: Sequence[Span]) -> dict[_SpanKey, float]:
    """Exclusive time per span: duration minus summed direct-child durations.

    Negative residues (possible only through clock quirks on sub-resolution
    spans) clamp to zero so downstream percentages stay meaningful.
    """
    child_time: dict[_SpanKey, float] = {}
    for span in spans:
        if span.parent_id is not None:
            key = (span.pid, span.parent_id)
            child_time[key] = child_time.get(key, 0.0) + span.duration
    return {
        (span.pid, span.span_id): max(
            0.0, span.duration - child_time.get((span.pid, span.span_id), 0.0)
        )
        for span in spans
    }


def aggregate_self(spans: Sequence[Span]) -> tuple[FrameStat, ...]:
    """(name, category) frame totals, sorted by descending self time."""
    selfs = self_seconds(spans)
    totals: dict[tuple[str, str], tuple[int, float, float]] = {}
    for span in spans:
        key = (span.name, span.category)
        count, inclusive, exclusive = totals.get(key, (0, 0.0, 0.0))
        totals[key] = (
            count + 1,
            inclusive + span.duration,
            exclusive + selfs[(span.pid, span.span_id)],
        )
    stats = [
        FrameStat(
            name=name,
            category=category,
            count=count,
            inclusive_seconds=inclusive,
            self_seconds=exclusive,
        )
        for (name, category), (count, inclusive, exclusive) in totals.items()
    ]
    stats.sort(key=lambda stat: (-stat.self_seconds, stat.name))
    return tuple(stats)


def _frame_name(name: str) -> str:
    """Collapsed-stack frames may not contain the separators of the format."""
    return name.replace(";", ":").replace(" ", "_") or "?"


def collapsed_stacks(spans: Sequence[Span]) -> dict[str, int]:
    """Map ``root;child;leaf`` stack paths to integer self-microseconds.

    Each span contributes its *self* time to the stack path ending at it, so
    the sum of all values equals (up to microsecond rounding) the summed
    inclusive duration of the root spans.  Spans whose parent was not
    collected (a truncated buffer) are treated as roots of their own stacks.
    """
    by_key: dict[_SpanKey, Span] = {(s.pid, s.span_id): s for s in spans}
    selfs = self_seconds(spans)
    stacks: dict[str, int] = {}
    for span in spans:
        path = []
        node = span
        while True:
            path.append(_frame_name(node.name))
            if node.parent_id is None:
                break
            parent = by_key.get((node.pid, node.parent_id))
            if parent is None:
                break
            node = parent
        stack = ";".join(reversed(path))
        micros = round(selfs[(span.pid, span.span_id)] * 1e6)
        if micros > 0:
            stacks[stack] = stacks.get(stack, 0) + micros
    return stacks


def write_flamegraph(path: "str | Path", spans: Sequence[Span]) -> int:
    """Write collapsed-stack lines (sorted, newline-terminated); return count."""
    stacks = collapsed_stacks(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for stack in sorted(stacks):
            handle.write(f"{stack} {stacks[stack]}\n")
    return len(stacks)


_LINE_PATTERN = re.compile(r"^\S+(;\S+)* [1-9][0-9]*$")


def leaf_attribution(lines: Iterable[str], spans: Sequence[Span]) -> float:
    """Fraction of traced root wall-clock attributed to collapsed-stack leaves."""
    attributed = 0.0
    for line in lines:
        line = line.strip()
        if line:
            attributed += int(line.rsplit(" ", 1)[1]) / 1e6
    traced = sum(span.duration for span in spans if span.parent_id is None)
    return attributed / traced if traced else 1.0


def validate_flamegraph(lines: Sequence[str], spans: Sequence[Span]) -> list[str]:
    """Structural oracle for collapsed-stack output; returns human-readable errors.

    Checks three invariants: every line matches the collapsed-stack grammar
    (``frame(;frame)* <positive-int>``), every stack root is the name of a
    root span actually present in the buffers, and at least 95% of traced
    root wall-clock is attributed to leaf frames.
    """
    errors: list[str] = []
    root_names = {
        _frame_name(span.name) for span in spans if span.parent_id is None
    }
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not _LINE_PATTERN.match(line):
            errors.append(f"line {number}: bad collapsed-stack grammar: {line!r}")
            continue
        root = line.split(";", 1)[0].split(" ", 1)[0]
        if root not in root_names:
            errors.append(
                f"line {number}: stack root {root!r} is not a root span "
                f"(roots: {sorted(root_names)})"
            )
    attributed = leaf_attribution(lines, spans)
    if attributed < 0.95:
        errors.append(
            f"only {attributed:.1%} of traced wall-clock attributed to leaf "
            f"frames (need >= 95%)"
        )
    return errors
