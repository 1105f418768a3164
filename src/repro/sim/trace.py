"""On-disk trace format of the online simulator.

A :class:`SimTrace` is the complete, self-contained input of one simulation:
the initial platform (per-type core counts) plus an ordered list of
:class:`~repro.sim.events.SimEvent`.  Traces serialize to JSONL — a header
line followed by one line per event — so they diff cleanly, stream, and
survive torn tails the same way the engine's checkpoint journal does.

Arrival and mutation events embed the full chain (per-type weight matrix +
replicability flags), making a trace file reproducible without the
generator that produced it.  Platform dynamics are ``core_failure`` /
``core_recovery`` events in the same list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.errors import InvalidParameterError
from ..core.task import TaskChain
from ..core.jsonl import read_records
from .events import SimEvent

__all__ = ["TRACE_FORMAT", "SimTrace", "chain_to_payload", "chain_from_payload"]

#: Format tag written in the trace header line.
TRACE_FORMAT: str = "repro-sim-trace/1"


def chain_to_payload(chain: TaskChain) -> "dict[str, Any]":
    """Serialize a chain as a JSON-safe weight matrix + flags."""
    ktype = chain.ktype
    return {
        "name": chain.name,
        "weights": [
            [task.weight(v) for task in chain.tasks] for v in range(ktype)
        ],
        "replicable": [bool(task.replicable) for task in chain.tasks],
    }


def chain_from_payload(payload: "dict[str, Any]") -> TaskChain:
    """Rebuild a chain from :func:`chain_to_payload` output."""
    return TaskChain.from_weight_matrix(
        payload["weights"],
        payload["replicable"],
        name=str(payload.get("name", "chain")),
    )


def _event_to_json(event: SimEvent) -> "dict[str, Any]":
    record: "dict[str, Any]" = {"kind": event.kind, "time": event.time}
    if event.kind in ("chain_arrival", "chain_mutation"):
        assert event.chain is not None
        record["chain"] = chain_to_payload(event.chain)
    elif event.kind == "chain_departure":
        record["name"] = event.name
    else:
        record["core_type"] = event.core_type
        record["cores"] = event.cores
    return record


def _event_from_json(record: "dict[str, Any]") -> SimEvent:
    kind = str(record["kind"])
    time = float(record["time"])
    if kind in ("chain_arrival", "chain_mutation"):
        return SimEvent(kind, time, chain=chain_from_payload(record["chain"]))
    if kind == "chain_departure":
        return SimEvent(kind, time, name=str(record["name"]))
    return SimEvent(
        kind,
        time,
        core_type=int(record["core_type"]),
        cores=int(record["cores"]),
    )


@dataclass(frozen=True)
class SimTrace:
    """One complete simulation input.

    Attributes:
        initial_counts: per-type core counts of the healthy platform.
        events: the timed events, in non-decreasing time order.
        name: trace label (carried into reports).
        metadata: free-form generator parameters (seed, kind, ...), kept
            for provenance only — the simulator never reads it.
    """

    initial_counts: tuple[int, ...]
    events: tuple[SimEvent, ...]
    name: str = "trace"
    metadata: "tuple[tuple[str, Any], ...]" = field(default=())

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.initial_counts)
        object.__setattr__(self, "initial_counts", counts)
        object.__setattr__(self, "events", tuple(self.events))
        if len(counts) < 1 or any(c < 0 for c in counts):
            raise InvalidParameterError(
                f"invalid initial platform counts {counts}"
            )
        if sum(counts) < 1:
            raise InvalidParameterError("the initial platform has no cores")
        last = 0.0
        for event in self.events:
            if event.time < last:
                raise InvalidParameterError(
                    "trace events must be in non-decreasing time order; "
                    f"{event.kind} at {event.time} after {last}"
                )
            last = event.time

    @property
    def ktype(self) -> int:
        """Number of platform core types."""
        return len(self.initial_counts)

    @property
    def num_events(self) -> int:
        """Number of events in the trace."""
        return len(self.events)

    # -- serialization -------------------------------------------------------

    def write(self, path: "Path | str") -> Path:
        """Write the trace as JSONL (header line + one line per event)."""
        target = Path(path)
        header = {
            "format": TRACE_FORMAT,
            "name": self.name,
            "initial_counts": list(self.initial_counts),
            "metadata": dict(self.metadata),
        }
        with target.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(
                    json.dumps(_event_to_json(event), sort_keys=True) + "\n"
                )
        return target

    @classmethod
    def read(cls, path: "Path | str") -> "SimTrace":
        """Load a trace written by :meth:`write` (a torn final line tolerated).

        A file that cannot be read, whose header line is not this format's,
        or with an unusable event line
        (:func:`~repro.core.jsonl.read_records`) raises
        :class:`InvalidParameterError` naming the path.
        """
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameterError(f"cannot read trace file {path}: {exc}") from None
        if not lines:
            raise InvalidParameterError(f"empty trace file {path}")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise InvalidParameterError(
                f"not a {TRACE_FORMAT} file: {path} (its first line is not "
                "that format's header)"
            )
        counts = header.get("initial_counts")
        if not isinstance(counts, list) or not all(isinstance(c, int) for c in counts):
            raise InvalidParameterError(
                f"trace file {path}: header has no 'initial_counts' list of integers"
            )
        return cls(
            initial_counts=tuple(counts),
            events=tuple(read_records(path, lines[1:], 2, _event_from_json).values()),
            name=str(header.get("name", "trace")),
            metadata=tuple(sorted(dict(header.get("metadata", {})).items())),
        )
