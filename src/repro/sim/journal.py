"""Append-only decision journal of the online simulator.

Each processed event writes one JSON line recording everything the
scheduler *decided*: the event's identity, the platform availability after
it, and per-chain ``(action, allocation, period, solution triplets)``
rows.  That is sufficient to replay the prefix of an interrupted run
without re-solving anything — :func:`repro.sim.simulator.simulate` rebuilds
solutions from the triplets, certifies each against its chain and its
recorded core counts (a tampered line is a
:class:`~repro.core.errors.CertificationError` naming the journal and the
line), advances the ladder counters exactly as the
live run did, and continues live from the first unjournaled event,
producing a bitwise-identical event log and metrics (the same contract as
the engine's checkpoint journal, :mod:`repro.engine.checkpoint`).

Torn final lines (a writer killed mid-``write``) are detected and dropped
on load; everything before them replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from ..core.jsonl import open_for_append, read_records
from .scheduler import ChainDecision

__all__ = ["EventRecord", "SimJournal"]


@dataclass(frozen=True, slots=True)
class EventRecord:
    """The deterministic outcome of processing one trace event.

    Attributes:
        seq: 0-based index of the event in the trace.
        time: simulated event time.
        kind: the event kind.
        availability: fraction of cores up after the event.
        counts: per-type cores available after the event.
        decisions: one :class:`~repro.sim.scheduler.ChainDecision` per
            registered chain, in arrival order.
    """

    seq: int
    time: float
    kind: str
    availability: float
    counts: tuple[int, ...]
    decisions: tuple[ChainDecision, ...]

    def to_json(self) -> "dict[str, Any]":
        """JSON-safe form (exact float round-trip via ``repr`` semantics)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "availability": self.availability,
            "counts": list(self.counts),
            "decisions": [
                {
                    "name": d.name,
                    "action": d.action,
                    "counts": list(d.counts),
                    "period": d.period,
                    "triplets": [list(t) for t in d.triplets],
                    "cost": d.cost,
                }
                for d in self.decisions
            ],
        }

    @classmethod
    def from_json(cls, record: "dict[str, Any]") -> "EventRecord":
        """Rebuild a record written by :meth:`to_json`."""
        return cls(
            seq=int(record["seq"]),
            time=float(record["time"]),
            kind=str(record["kind"]),
            availability=float(record["availability"]),
            counts=tuple(int(c) for c in record["counts"]),
            decisions=tuple(
                ChainDecision(
                    name=str(d["name"]),
                    action=str(d["action"]),
                    counts=tuple(int(c) for c in d["counts"]),
                    period=None if d["period"] is None else float(d["period"]),
                    triplets=tuple(
                        (int(t[0]), int(t[1]), int(t[2]), int(t[3]))
                        for t in d["triplets"]
                    ),
                    cost=float(d["cost"]),
                )
                for d in record["decisions"]
            ),
        )


class SimJournal:
    """Append-only JSONL journal of :class:`EventRecord` rows."""

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self._handle: "IO[str] | None" = None

    def load(self) -> "dict[int, EventRecord]":
        """Every record keyed by its 1-based line, in file order (a torn
        final line dropped; see ``read_records``)."""
        if not self.path.exists():
            return {}
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return read_records(self.path, lines, 1, EventRecord.from_json)

    def append(self, record: EventRecord) -> None:
        """Append one record and flush it to the OS."""
        if self._handle is None:
            self._handle = open_for_append(self.path)
        self._handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the writer (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SimJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
