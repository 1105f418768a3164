"""Journaled checkpoints: crash-safe persistence of campaign results.

A campaign is a pure map from ``(chain fingerprint, budget, strategy)`` keys
to :class:`~repro.engine.memo.InstanceResult` triples, so checkpointing needs
no coordination: an append-only JSONL journal of solved rows is enough to
resume a killed run.  The engine appends one line per solved instance and
fsyncs once per completed work unit; on resume the journal is replayed into
the memo cache, the already-solved instances short-circuit through the
ordinary memo path, and only the remainder is solved — producing arrays
bitwise identical to an uninterrupted run (floats round-trip exactly through
``json``'s shortest-repr encoding).

Crash safety: a process killed mid-write leaves at most one torn final line.
:func:`load_journal` is tolerant — any line that does not parse back into a
complete row is skipped, never fatal — and duplicate keys are fine (last
wins; a resumed run may legitimately re-append rows the first run already
journaled).

Format: one JSON object per line, carrying the budget's full type
signature and the per-type usage::

    {"fp": "3f9a...", "counts": [10, 10, 4], "strategy": "ktype_ref",
     "period": 12.375, "used": [3, 2, 1]}

Journals written before the k-type platform layer spelled two-type rows
out field by field; :func:`load_journal` still reads that layout (alone or
mixed with the current one in the same file), but nothing writes it::

    {"fp": "3f9a...", "big": 10, "little": 10, "strategy": "fertac",
     "period": 12.375, "big_used": 3, "little_used": 2}
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import IO

from .memo import InstanceResult, MemoCache, MemoKey

__all__ = ["CheckpointJournal", "load_journal", "open_for_append"]

_log = logging.getLogger(__name__)


def _encode(key: MemoKey, result: InstanceResult) -> str:
    fingerprint, counts, strategy = key
    row = {
        "fp": fingerprint,
        "counts": list(counts),
        "strategy": strategy,
        "period": result.period,
        "used": list(result.usage),
    }
    return json.dumps(row, separators=(",", ":"))


def _int_list(value: object) -> "list[int] | None":
    if not isinstance(value, list) or not all(
        isinstance(item, int) for item in value
    ):
        return None
    return value


def _decode(line: str) -> "tuple[MemoKey, InstanceResult] | None":
    """Parse one journal line; ``None`` for torn or foreign lines."""
    try:
        row = json.loads(line)
    except ValueError:
        return None
    if not isinstance(row, dict):
        return None
    fingerprint = row.get("fp")
    strategy = row.get("strategy")
    period = row.get("period")
    if not (
        isinstance(fingerprint, str)
        and isinstance(strategy, str)
        and isinstance(period, (int, float))
    ):
        return None
    if "counts" in row:
        counts = _int_list(row.get("counts"))
        used = _int_list(row.get("used"))
        if counts is None or used is None or len(used) < 2:
            return None
        key: MemoKey = (fingerprint, tuple(counts), strategy)
        return key, InstanceResult(
            period=float(period),
            big_used=used[0],
            little_used=used[1],
            extra_used=tuple(used[2:]),
        )
    # Legacy two-type layout (read-only: no writer produces it any more).
    big = row.get("big")
    little = row.get("little")
    big_used = row.get("big_used")
    little_used = row.get("little_used")
    if not (
        isinstance(big, int)
        and isinstance(little, int)
        and isinstance(big_used, int)
        and isinstance(little_used, int)
    ):
        return None
    key = (fingerprint, (big, little), strategy)
    return key, InstanceResult(
        period=float(period), big_used=big_used, little_used=little_used
    )


def load_journal(path: "str | Path") -> "dict[MemoKey, InstanceResult]":
    """Replay a journal file into a key → result mapping.

    Missing files yield an empty mapping (a fresh ``--resume`` target);
    unparseable lines (a torn tail after a crash, stray garbage) are skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}
    rows: dict[MemoKey, InstanceResult] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        decoded = _decode(line)
        if decoded is not None:
            rows[decoded[0]] = decoded[1]
    return rows


def open_for_append(path: Path) -> "IO[str]":
    """Open a JSONL journal for appending, cutting a torn tail off first.

    A writer killed mid-``write`` leaves a last line with no newline; a row
    appended straight after it would be glued onto it and both lost to every
    later load.  The file is cut back to its last newline — what the loaders
    already ignore — before the first append.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab+") as raw:
        if raw.seek(0, os.SEEK_END):
            raw.seek(-1, os.SEEK_END)
            if raw.read(1) != b"\n":
                raw.seek(0)
                raw.truncate(raw.read().rfind(b"\n") + 1)
    return open(path, "a", encoding="utf-8")


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
        self._replayed = False
        self.rows_written = 0

    def load(self) -> "dict[MemoKey, InstanceResult]":
        """Parse the journal from disk (tolerant; see :func:`load_journal`)."""
        return load_journal(self.path)

    def replay_into(self, memo: MemoCache) -> int:
        """Load the journal into a memo cache; returns rows replayed."""
        replayed = memo.warm(self.load())
        if replayed:
            _log.debug("replayed %d journaled row(s) from %s", replayed, self.path)
        return replayed

    def replay_into_once(self, memo: MemoCache) -> int:
        """Like :meth:`replay_into`, but at most once per journal object.

        The engine calls this at the top of every campaign; after the first
        replay the journal's new rows are already in the cache, so re-reading
        the file would be wasted work.
        """
        if self._replayed:
            return 0
        self._replayed = True
        return self.replay_into(memo)

    def record(self, key: MemoKey, result: InstanceResult) -> None:
        """Append one solved row (buffered until :meth:`commit`)."""
        if self._file is None:
            self._file = open_for_append(self.path)
        self._file.write(_encode(key, result) + "\n")
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
