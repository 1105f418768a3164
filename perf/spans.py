"""The benchmark's own span recorder (no span is added inside ``src/``).

A span is ``(id, parent, pass, layer, name, start, end)``; spans of one pass
share its identifier.  They stay in memory and are written as JSON lines when
the run ends.  A layer's self time is its spans' duration minus the part of
that interval their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

#: This repo's modules, outermost first; every span belongs to one of them.
LAYERS = (
    "cli",
    "workloads",
    "core",
    "core.kernels",
    "engine",
    "experiments",
    "sim",
    "obs",
)


@dataclass
class Span:
    id: int
    parent: "int | None"
    pass_id: int
    layer: str
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans around calls into the layers; off when ``enabled`` is false."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        self.pass_id = 0

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            len(self.spans), parent, self.pass_id, layer, name, time.perf_counter()
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, layer: str, name: str, seconds: float) -> None:
        """A child of the open span whose time was measured by the callee.

        For calls the benchmark cannot see inside (the simulator reports its
        own rescheduling seconds): the child covers ``seconds`` of its
        parent, ending where the parent stands now.
        """
        if not self.enabled:
            return
        parent = self._stack[-1]
        now = time.perf_counter()
        self.spans.append(
            Span(
                len(self.spans), parent.id, self.pass_id, layer, name,
                now - seconds, now,
            )
        )

    def self_seconds(self) -> "dict[str, tuple[float, int]]":
        """``layer -> (self seconds, span count)`` over every recorded span."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        table = {layer: (0.0, 0) for layer in LAYERS}
        for span in self.spans:
            seconds, count = table[span.layer]
            own = max(0.0, span.seconds - covered[span.id])
            table[span.layer] = (seconds + own, count + 1)
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
