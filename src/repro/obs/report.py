"""RunReport: the human-readable end-of-run summary.

Aggregates the session's spans and metrics into the things someone tuning a
campaign actually asks: *where did the wall-clock go* (top time sinks by
span name, inclusive **and** exclusive), *how bad are the tails* (p50/p90/p99
from the quantile sketches), *did the memo help* (hit rate), *what did
parallelism cost* (per-worker pickle/pool-wait attribution), and *did
anything go wrong* (retries, degradations, quarantines).  The CLI prints
:meth:`RunReport.render` when ``--metrics`` is set.

Time sinks, listed when spans were recorded (``--trace``), report both
inclusive time ("how much wall-clock had a ``solve`` span open" —
double-counts nested spans by design) and exclusive self time
derived by :mod:`repro.obs.profile` ("how much wall-clock is attributable to
this frame and nothing below it" — sums to traced wall-clock exactly).  The
full per-stack breakdown is the ``--flamegraph`` export.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Observability
from .metrics import HistogramStats, MetricsSnapshot
from .profile import aggregate_self
from .sketch import SketchSnapshot
from .span import Span

__all__ = ["SpanSink", "WorkerCost", "RunReport"]

_WORKER_PREFIX = "worker."
"""Counter namespace for per-worker cost attribution (process tier only).

Everything under it is keyed by worker pid and therefore run-dependent —
the one metric namespace exempt from the cross-tier counter-parity
guarantee (see DESIGN.md §15).
"""


@dataclass(frozen=True, slots=True)
class SpanSink:
    """Aggregated inclusive + exclusive time for one span (name, category)."""

    name: str
    category: str
    count: int
    total_seconds: float
    self_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass(frozen=True, slots=True)
class WorkerCost:
    """Per-worker cost attribution parsed from the ``worker.<pid>.*`` counters."""

    pid: str
    units: int
    bytes_in: int
    bytes_out: int
    pickle_seconds: float
    pool_wait_seconds: float
    memo_hits: int
    memo_misses: int


#: What a ``solve.seconds.<strategy>`` histogram holds, which its name alone
#: does not say: one value per solve group (one strategy's instances of a
#: work unit, solved in one call), that group's wall over its instance
#: count — the planner's per-cell cost — so ``n`` counts groups and the
#: quantiles are over groups, not over solves.
_SOLVE_SECONDS_NOTE = " (seconds per instance, one value per solve group)"


def _aggregate_sinks(spans: tuple[Span, ...]) -> tuple[SpanSink, ...]:
    return tuple(
        SpanSink(
            name=stat.name,
            category=stat.category,
            count=stat.count,
            total_seconds=stat.inclusive_seconds,
            self_seconds=stat.self_seconds,
        )
        for stat in sorted(
            aggregate_self(spans),
            key=lambda stat: (-stat.inclusive_seconds, stat.name),
        )
    )


def _fmt_bytes(count: float) -> str:
    value = float(count)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{value:.0f}B"
        value /= 1024.0
    return f"{value:.1f}GB"


@dataclass(frozen=True, slots=True)
class RunReport:
    """Everything the end-of-run summary needs, in one picklable value."""

    wall_seconds: float
    sinks: tuple[SpanSink, ...]
    counters: tuple[tuple[str, float], ...]
    histograms: tuple[tuple[str, HistogramStats], ...]
    sketches: tuple[tuple[str, SketchSnapshot], ...] = ()

    @classmethod
    def from_observability(
        cls, obs: Observability, wall_seconds: float
    ) -> "RunReport":
        snapshot = obs.metrics.snapshot()
        return cls.from_parts(obs.spans(), snapshot, wall_seconds)

    @classmethod
    def from_parts(
        cls,
        spans: tuple[Span, ...],
        metrics: MetricsSnapshot,
        wall_seconds: float,
    ) -> "RunReport":
        return cls(
            wall_seconds=wall_seconds,
            sinks=_aggregate_sinks(spans),
            counters=metrics.counters,
            histograms=metrics.histograms,
            sketches=metrics.sketches,
        )

    def counter(self, name: str) -> float:
        for key, value in self.counters:
            if key == name:
                return value
        return 0.0

    def sketch(self, name: str) -> SketchSnapshot | None:
        for key, value in self.sketches:
            if key == name:
                return value
        return None

    @property
    def memo_hits(self) -> float:
        return self.counter("memo.hits")

    @property
    def memo_misses(self) -> float:
        return self.counter("memo.misses")

    @property
    def memo_hit_rate(self) -> float:
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    @property
    def retries(self) -> float:
        return self.counter("resilience.retries")

    @property
    def quarantined(self) -> float:
        return self.counter("resilience.quarantined")

    @property
    def degradations(self) -> float:
        return self.counter("resilience.degradations")

    def worker_costs(self) -> tuple[WorkerCost, ...]:
        """Per-worker attribution rows (empty outside traced process tiers)."""
        by_pid: dict[str, dict[str, float]] = {}
        for name, value in self.counters:
            if not name.startswith(_WORKER_PREFIX):
                continue
            parts = name.split(".", 2)
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            by_pid.setdefault(parts[1], {})[parts[2]] = value
        return tuple(
            WorkerCost(
                pid=pid,
                units=int(fields.get("units", 0)),
                bytes_in=int(fields.get("pickle.bytes_in", 0)),
                bytes_out=int(fields.get("pickle.bytes_out", 0)),
                pickle_seconds=fields.get("pickle.seconds_in", 0.0)
                + fields.get("pickle.seconds_out", 0.0),
                pool_wait_seconds=fields.get("pool_wait.seconds", 0.0),
                memo_hits=int(fields.get("memo.hits", 0)),
                memo_misses=int(fields.get("memo.misses", 0)),
            )
            for pid, fields in sorted(by_pid.items())
        )

    def _render_efficiency(self, lines: list[str]) -> None:
        costs = self.worker_costs()
        if not costs:
            return
        lines.append(f"parallel efficiency ({len(costs)} workers):")
        total_in = sum(cost.bytes_in for cost in costs)
        total_out = sum(cost.bytes_out for cost in costs)
        total_pickle = sum(cost.pickle_seconds for cost in costs)
        lines.append(
            f"  pickle: {_fmt_bytes(total_in)} in / {_fmt_bytes(total_out)} out, "
            f"{total_pickle * 1e3:.2f}ms serializing"
        )
        wait_sketch = self.sketch("worker.pool_wait.seconds")
        if wait_sketch is not None and not wait_sketch.empty:
            lines.append(
                f"  pool wait: p50 {wait_sketch.p50 * 1e3:.2f}ms "
                f"p90 {wait_sketch.p90 * 1e3:.2f}ms "
                f"p99 {wait_sketch.p99 * 1e3:.2f}ms"
            )
        for cost in costs:
            memo = (
                f", memo {cost.memo_hits}/{cost.memo_hits + cost.memo_misses}"
                if cost.memo_hits or cost.memo_misses
                else ""
            )
            lines.append(
                f"  worker {cost.pid}: units {cost.units}, "
                f"in {_fmt_bytes(cost.bytes_in)}, out {_fmt_bytes(cost.bytes_out)}, "
                f"pickle {cost.pickle_seconds * 1e3:.2f}ms, "
                f"wait {cost.pool_wait_seconds * 1e3:.2f}ms{memo}"
            )

    def render(self, top: int = 10) -> str:
        """Format the report for terminal output."""
        lines = ["== Run report =="]
        lines.append(f"wall-clock: {self.wall_seconds:.3f}s")

        if self.sinks:
            lines.append(
                f"top time sinks (inclusive/self, top {min(top, len(self.sinks))}):"
            )
            for sink in self.sinks[:top]:
                lines.append(
                    f"  {sink.total_seconds:9.3f}s {sink.self_seconds:9.3f}s  "
                    f"{sink.name:<24s} [{sink.category}]  x{sink.count}  "
                    f"(mean {sink.mean_seconds * 1e3:.2f}ms)"
                )

        lookups = self.memo_hits + self.memo_misses
        if lookups:
            lines.append(
                f"memo: {self.memo_hits:.0f}/{lookups:.0f} hits "
                f"({self.memo_hit_rate:.1%})"
            )
        failures = self.quarantined
        if failures or self.retries or self.degradations:
            lines.append(
                f"failures: {failures:.0f} quarantined, "
                f"{self.retries:.0f} retries, {self.degradations:.0f} degradations"
            )
        else:
            lines.append("failures: none")

        self._render_efficiency(lines)

        shown = {"memo.hits", "memo.misses", "resilience.retries",
                 "resilience.quarantined", "resilience.degradations"}
        other = [
            (name, value)
            for name, value in self.counters
            if name not in shown and not name.startswith(_WORKER_PREFIX)
        ]
        if other:
            lines.append("counters:")
            for name, value in other:
                rendered = f"{value:.0f}" if value == int(value) else f"{value:.3f}"
                lines.append(f"  {name} = {rendered}")
        if self.histograms:
            lines.append("histograms:")
            for name, stats in self.histograms:
                # The name carries the unit: a ``seconds`` segment prints as
                # milliseconds; periods (weight units) and modelled costs
                # are not times and print bare.
                scale, unit = (1e3, "ms") if "seconds" in name.split(".") else (1.0, "")
                quantiles = ""
                sketch = self.sketch(name)
                if sketch is not None and not sketch.empty:
                    quantiles = (
                        f" p50={sketch.p50 * scale:.3f}{unit}"
                        f" p90={sketch.p90 * scale:.3f}{unit}"
                        f" p99={sketch.p99 * scale:.3f}{unit}"
                    )
                note = (
                    _SOLVE_SECONDS_NOTE if name.startswith("solve.seconds.") else ""
                )
                lines.append(
                    f"  {name}{note}: n={stats.count} mean={stats.mean * scale:.3f}{unit}"
                    f"{quantiles} "
                    f"min={stats.minimum * scale:.3f}{unit} max={stats.maximum * scale:.3f}{unit}"
                )
        return "\n".join(lines)
