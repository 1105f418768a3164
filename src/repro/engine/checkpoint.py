"""Journaled checkpoints: crash-safe persistence of campaign results.

A campaign is a pure map from ``(chain fingerprint, budget, strategy)`` keys
to :class:`~repro.engine.memo.InstanceResult` rows, so checkpointing needs
no coordination: an append-only JSONL journal of solved rows is enough to
resume a killed run.  The engine appends one line per solved instance and
fsyncs once per completed work unit; on resume each journaled row a
campaign asks for is audited and replayed through the memo cache, and only
the remainder is solved — producing arrays bitwise identical to an
uninterrupted run (floats round-trip exactly through ``json``'s
shortest-repr encoding).

A row comes from disk, so it is not trusted: it carries the schedule's
stage list, and :meth:`CheckpointJournal.replay_into` audits it with
:func:`~repro.core.certify.certify_solution` against the chain of the
campaign that first looks it up, before it enters the memo.  A row that
parses but fails its audit is a
:class:`~repro.core.errors.CertificationError` naming the journal and the
line.

Crash safety: a process killed mid-write leaves at most one torn final
line, which :func:`load_journal` drops
(:func:`~repro.core.jsonl.read_records`, the one JSONL read rule of the
engine journal, the simulator's journal and its trace files).  Any other
unusable line is an :class:`~repro.core.errors.InvalidParameterError`
naming the path and the line.
Duplicate keys are fine (last wins; a resumed run may legitimately
re-append rows the first run already journaled).

Format: one JSON object per line, carrying the budget's full type
signature, the per-type usage and the stage list as
:meth:`~repro.core.solution.Solution.from_triplets` input
(``[start, end, cores, type index]``)::

    {"fp": "3f9a...", "counts": [10, 10], "strategy": "fertac",
     "period": 12.375, "used": [3, 2], "stages": [[0, 11, 3, 0], [12, 19, 2, 1]]}
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import IO, Any, Iterable, NamedTuple

from ..core.certify import certify_solution
from ..core.errors import CertificationError, SchedulingError
from ..core.jsonl import open_for_append, read_records
from ..core.registry import get_info
from ..core.solution import Solution
from ..core.task import TaskChain
from ..core.types import Resources
from .memo import InstanceResult, MemoCache, MemoKey

__all__ = [
    "CheckpointJournal",
    "JournalRow",
    "Stages",
    "load_journal",
]

_log = logging.getLogger(__name__)

#: A schedule's stages as ``(start, end, cores, type index)`` rows.
Stages = tuple[tuple[int, int, int, int], ...]


class JournalRow(NamedTuple):
    """One journaled instance: its result, its schedule, and its line."""

    result: InstanceResult
    stages: Stages
    line: int


def _encode(key: MemoKey, result: InstanceResult, stages: Stages) -> str:
    fingerprint, counts, strategy = key
    row = {
        "fp": fingerprint,
        "counts": list(counts),
        "strategy": strategy,
        "period": result.period,
        "used": list(result.usage),
        "stages": [list(stage) for stage in stages],
    }
    return json.dumps(row, separators=(",", ":"))


def _ints(value: object, size: "int | None" = None) -> "tuple[int, ...]":
    if (
        not isinstance(value, list)
        or not all(type(item) is int for item in value)
        or (size is not None and len(value) != size)
    ):
        raise TypeError(f"expected a list of {size or 'some'} integers, got {value!r}")
    return tuple(value)


def _decode(row: "dict[str, Any]") -> "tuple[MemoKey, InstanceResult, Stages]":
    """One journal object; raises on anything this layout does not write."""
    fingerprint, strategy, period = row["fp"], row["strategy"], row["period"]
    if not (
        isinstance(fingerprint, str)
        and isinstance(strategy, str)
        and type(period) in (int, float)
    ):
        raise TypeError("fp, strategy and period must be str, str and a number")
    used = _ints(row["used"])
    stages = tuple(_ints(stage, 4) for stage in row["stages"])
    result = InstanceResult(float(period), used[0], used[1], used[2:])
    return (fingerprint, _ints(row["counts"]), strategy), result, stages


def load_journal(path: "str | Path") -> "dict[MemoKey, JournalRow]":
    """Read a journal file into a key → row mapping (last row of a key wins).

    A missing file yields an empty mapping (a fresh ``--resume`` target).
    A torn final line is dropped; any other unusable line — including a
    row without a stage list — raises :class:`InvalidParameterError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}
    records = read_records(path, text.splitlines(), 1, _decode)
    return {
        key: JournalRow(result, stages, line)
        for line, (key, result, stages) in records.items()
    }


class CheckpointJournal:
    """Append-only JSONL journal of solved campaign instances.

    The engine calls :meth:`record` per solved instance and :meth:`commit`
    (flush + fsync) per completed work unit, so a hard kill loses at most the
    in-flight unit.  One journal object may serve many campaigns in sequence
    (the CLI reuses one across every scenario of a sweep).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._file: "IO[str] | None" = None
        self._unaudited: "dict[MemoKey, JournalRow] | None" = None
        self.rows_written = 0

    def replay_into(
        self,
        memo: MemoCache,
        cells: "Iterable[tuple[MemoKey, TaskChain]]",
        resources: Resources,
    ) -> int:
        """Audit the journaled rows of ``cells`` and put them in ``memo``.

        The file is read on the first call.  Each row is audited once,
        against the chain of the first call that asks for its key, and
        then leaves the journal's keeping: the memo holds only audited
        results.  Returns the rows replayed by this call.

        Raises:
            CertificationError: a row's schedule fails its audit (or is not
                a schedule at all); the message names the file and line.
        """
        if self._unaudited is None:
            self._unaudited = load_journal(self.path)
        audited = []
        for key, chain in cells:
            row = self._unaudited.pop(key, None)
            if row is not None:
                self._audit(key, row, chain, resources)
                audited.append((key, row.result))
        if audited:
            memo.put_many(audited)
            _log.debug("replayed %d journaled row(s) from %s", len(audited), self.path)
        return len(audited)

    def _audit(
        self, key: MemoKey, row: JournalRow, chain: TaskChain, resources: Resources
    ) -> None:
        strategy = key[2]
        context = f"{self.path}, line {row.line}: {strategy}"
        try:
            solution = Solution.from_triplets(row.stages)
        except SchedulingError as error:
            raise CertificationError(f"{context}: {error}") from None
        certify_solution(
            solution,
            chain,
            resources,
            claimed_period=row.result.period,
            claimed_usage=row.result.usage,
            optimal=get_info(strategy).optimal,
            context=context,
        )

    def record(self, key: MemoKey, result: InstanceResult, stages: Stages) -> None:
        """Append one solved row (buffered until :meth:`commit`)."""
        if self._file is None:
            self._file = open_for_append(self.path)
        self._file.write(_encode(key, result, stages) + "\n")
        self.rows_written += 1

    def commit(self) -> None:
        """Flush buffered rows and fsync them to disk (crash barrier)."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Commit and release the file handle (safe to call repeatedly)."""
        if self._file is None:
            return
        self.commit()
        self._file.close()
        self._file = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
