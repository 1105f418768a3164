"""The discrete-event simulation loop.

:func:`simulate` drains a :class:`~repro.sim.trace.SimTrace` through the
deterministic :class:`~repro.sim.events.EventQueue`: each event mutates the
platform (:class:`~repro.sim.platform_state.PlatformState`) or the workload
and then triggers one rescheduling round of the
:class:`~repro.sim.scheduler.IncrementalScheduler`.  The loop enforces and
counts two invariants:

* **zero scheduleless intervals** — after every event, every registered
  chain either holds a feasible schedule or was *explicitly* shed
  (``sim.invariant.scheduleless`` stays 0);
* **no overcommit** — the per-chain allocations never exceed the cores
  currently up, i.e. nothing is ever scheduled onto a down core
  (``sim.invariant.overcommit`` stays 0).

Determinism contract: everything in the returned
:class:`SimResult.records` and :class:`SimResult.metrics` is a pure
function of ``(trace, config)`` — identical at any ``--jobs``, with or
without a journal, interrupted-and-resumed or not.  Wall-clock
rescheduling latencies are *observed* (they feed the obs histogram and the
bench percentiles through :attr:`SimResult.resched_seconds`) but never
consulted: no control flow reads a clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.errors import InvalidParameterError
from ..obs.clock import monotonic
from ..obs.export import write_chrome_trace
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.sketch import SketchSnapshot, sketch_of
from ..obs.span import Span
from .events import EventQueue, SimEvent
from .journal import EventRecord, SimJournal
from .platform_state import DownInterval, PlatformState
from .scheduler import IncrementalScheduler
from .trace import SimTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = ["SimConfig", "SimResult", "simulate", "sim_spans", "write_sim_trace"]


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Knobs of one simulation run.

    Attributes:
        strategy: registry name of the cold-solve strategy.
        deadline: rescheduling budget per event in modeled cost units
            (``None`` = unbounded; see :mod:`repro.sim.scheduler`).
        certify: audit every warm/cold solution with the independent
            certificate checker.
    """

    strategy: str = "2catac"
    deadline: "float | None" = None
    certify: bool = False


@dataclass(frozen=True)
class SimResult:
    """Everything one simulation run produced.

    ``records`` and ``metrics`` are deterministic (the bitwise-comparable
    event log); ``resched_seconds`` holds the *non-deterministic* per-event
    wall-clock rescheduling latencies, kept strictly apart so determinism
    tests can compare the former and benchmarks can aggregate the latter.
    """

    name: str
    records: tuple[EventRecord, ...]
    metrics: MetricsSnapshot
    down_intervals: tuple[DownInterval, ...]
    final_periods: tuple[tuple[str, "float | None"], ...]
    end_time: float
    resched_seconds: tuple[float, ...] = field(repr=False, default=())

    @property
    def num_events(self) -> int:
        """Events processed (== replayed + live)."""
        return len(self.records)

    def counter(self, name: str) -> float:
        """A counter's final value (0.0 when never touched)."""
        counters = dict(self.metrics.counters)
        return float(counters.get(name, 0.0))

    @property
    def scheduleless_intervals(self) -> int:
        """Events after which some chain was neither scheduled nor shed."""
        return int(self.counter("sim.invariant.scheduleless"))

    @property
    def overcommit_events(self) -> int:
        """Events whose allocations exceeded the cores currently up."""
        return int(self.counter("sim.invariant.overcommit"))

    def aggregate_throughput(self) -> float:
        """Steady-state throughput: sum of ``1 / period`` over scheduled
        chains at the end of the run."""
        return sum(
            1.0 / period
            for _, period in self.final_periods
            if period is not None and period > 0
        )

    def resched_sketch(self) -> SketchSnapshot:
        """Quantile sketch of the per-event rescheduling latencies.

        The latencies themselves are wall-clock (non-deterministic), so the
        sketch lives outside :attr:`metrics` — but p50/p90/p99 come from the
        same :mod:`repro.obs.sketch` bucketing the rest of the project uses,
        so the CLI and the obs layer cannot disagree about what a
        percentile means.
        """
        return sketch_of(self.resched_seconds)


def _apply_event(
    event: SimEvent,
    platform: PlatformState,
    scheduler: IncrementalScheduler,
    metrics: MetricsRegistry,
) -> None:
    """Mutate platform/workload state for one event."""
    metrics.add(f"sim.events.{event.kind}")
    if event.kind == "chain_arrival":
        assert event.chain is not None
        scheduler.admit(event.chain)
    elif event.kind == "chain_departure":
        scheduler.depart(event.name)
    elif event.kind == "chain_mutation":
        assert event.chain is not None
        scheduler.mutate(event.chain)
    elif event.kind == "core_failure":
        platform.fail(event.core_type, event.cores, event.time)
    else:  # core_recovery
        platform.recover(event.core_type, event.cores, event.time)


def _check_invariants(
    record: EventRecord, metrics: MetricsRegistry
) -> None:
    """Count violations of the scheduleless / overcommit invariants."""
    used = [0] * len(record.counts)
    scheduleless = False
    for decision in record.decisions:
        if decision.action == "shed":
            continue
        if decision.period is None or not decision.triplets:
            scheduleless = True
            continue
        for v, c in enumerate(decision.counts):
            used[v] += c
    if scheduleless:
        metrics.add("sim.invariant.scheduleless")
    if any(u > a for u, a in zip(used, record.counts)):
        metrics.add("sim.invariant.overcommit")


def simulate(
    trace: SimTrace,
    config: "SimConfig | None" = None,
    journal: "SimJournal | Path | str | None" = None,
    stop_after: "int | None" = None,
) -> SimResult:
    """Run a trace through the incremental scheduler.

    Args:
        trace: the simulation input.
        config: run knobs (defaults: ``2catac``, unbounded deadline).
        journal: decision journal to append to; when the file already holds
            records (an interrupted run), the recorded prefix is *replayed*
            — decisions applied without re-solving — and the run continues
            live from the first unjournaled event, bitwise identical to an
            uninterrupted run.
        stop_after: process at most this many events (interrupt a run
            mid-trace on purpose; used with ``journal`` by the resume
            tests and the CLI's ``--stop-after``).

    Returns:
        The :class:`SimResult`; deterministic except for
        :attr:`SimResult.resched_seconds`.
    """
    cfg = config if config is not None else SimConfig()
    sink = journal if isinstance(journal, SimJournal) or journal is None else SimJournal(journal)
    metrics = MetricsRegistry()
    platform = PlatformState(trace.initial_counts)
    scheduler = IncrementalScheduler(
        strategy=cfg.strategy,
        deadline=cfg.deadline,
        certify=cfg.certify,
        metrics=metrics,
    )

    # Each journaled record with the journal line it is audited as.
    replayed: "list[tuple[str, EventRecord]]" = (
        [(f"{sink.path}, line {line}", rec) for line, rec in sink.load().items()]
        if sink is not None
        else []
    )
    if len(replayed) > len(trace.events):
        raise InvalidParameterError(
            f"journal holds {len(replayed)} records but the trace has only "
            f"{len(trace.events)} events — wrong journal for this trace?"
        )

    queue: "EventQueue[tuple[int, SimEvent]]" = EventQueue()
    for index, event in enumerate(trace.events):
        queue.push(event.time, (index, event))

    records: "list[EventRecord]" = []
    latencies: "list[float]" = []
    limit = len(trace.events) if stop_after is None else min(stop_after, len(trace.events))

    try:
        while queue and len(records) < limit:
            time, (index, event) = queue.pop()
            if index < len(replayed):
                # Replay: re-apply the event and the journaled decisions
                # without solving; verify the journal matches the trace.
                where, recorded = replayed[index]
                if recorded.seq != index or recorded.kind != event.kind:
                    raise InvalidParameterError(
                        f"journal record {recorded.seq} ({recorded.kind}) "
                        f"does not match trace event {index} ({event.kind})"
                    )
                _apply_event(event, platform, scheduler, metrics)
                for decision in recorded.decisions:
                    scheduler.apply_decision(decision, where)
                record = recorded
            else:
                _apply_event(event, platform, scheduler, metrics)
                started = monotonic()
                available = platform.available()
                decisions = scheduler.reschedule(available)
                elapsed = monotonic() - started
                latencies.append(elapsed)
                record = EventRecord(
                    seq=index,
                    time=time,
                    kind=event.kind,
                    availability=platform.availability(),
                    counts=available.counts,
                    decisions=decisions,
                )
                if sink is not None:
                    sink.append(record)
            # Observed from the record, so a replayed event counts the same.
            metrics.observe("sim.resched.cost", sum(d.cost for d in record.decisions))
            if record.decisions:  # a round with no chain registered decides nothing
                scheduled = min(len(record.decisions), sum(record.counts))
                metrics.set_gauge("sim.active_chains", float(scheduled))
            metrics.set_gauge("sim.availability", record.availability)
            _check_invariants(record, metrics)
            records.append(record)
    finally:
        if sink is not None and not isinstance(journal, SimJournal):
            sink.close()

    end_time = records[-1].time if records else 0.0
    final_periods = tuple(
        (name, outcome.period if (outcome := scheduler.schedule_of(name)) is not None else None)
        for name in scheduler.chains
    )
    return SimResult(
        name=trace.name,
        records=tuple(records),
        metrics=metrics.snapshot(),
        down_intervals=platform.down_intervals(end_time),
        final_periods=final_periods,
        end_time=end_time,
        resched_seconds=tuple(latencies),
    )


# -- Chrome-trace export -----------------------------------------------------


def sim_spans(result: SimResult) -> "tuple[Span, ...]":
    """Render a run as Chrome-trace lanes.

    One lane per concrete core (``tid = 1 + global core number``, spans
    marking its down intervals) plus a scheduler lane (``tid = 0``) with
    one span per rescheduling round, sized by its modeled cost share and
    annotated with the ladder actions taken.
    """
    spans: "list[Span]" = []
    span_id = 1
    # Core lanes: offset core numbers by type so every concrete core gets
    # a stable lane of its own.
    type_offsets: "dict[int, int]" = {}
    offset = 0
    counts_seen: "dict[int, int]" = {}
    for interval in result.down_intervals:
        counts_seen[interval.core_type] = max(
            counts_seen.get(interval.core_type, 0), interval.core_index + 1
        )
    for core_type in sorted(counts_seen):
        type_offsets[core_type] = offset
        offset += counts_seen[core_type]
    for interval in result.down_intervals:
        lane = 1 + type_offsets[interval.core_type] + interval.core_index
        spans.append(
            Span(
                name="down",
                category="sim.core",
                start=interval.start,
                end=interval.end,
                pid=1,
                tid=lane,
                span_id=span_id,
                parent_id=None,
                depth=0,
                attrs=(
                    ("core_index", interval.core_index),
                    ("core_type", interval.core_type),
                ),
            )
        )
        span_id += 1
    for record in result.records:
        actions = ",".join(
            f"{d.action}:{d.name}" for d in record.decisions
        )
        spans.append(
            Span(
                name=record.kind,
                category="sim.event",
                start=record.time,
                end=record.time,
                pid=1,
                tid=0,
                span_id=span_id,
                parent_id=None,
                depth=0,
                attrs=(
                    ("actions", actions[:256]),
                    ("availability", record.availability),
                    ("seq", record.seq),
                ),
            )
        )
        span_id += 1
    return tuple(spans)


def write_sim_trace(path: "Path | str", result: SimResult) -> "Path":
    """Write the run's Chrome trace-event JSON (per-core lanes + metrics)."""
    return write_chrome_trace(path, sim_spans(result), result.metrics)
