"""The one JSONL read rule of the project's three on-disk files.

The engine's checkpoint journal (:mod:`repro.engine.checkpoint`), the
simulator's decision journal (:mod:`repro.sim.journal`) and its trace files
(:mod:`repro.sim.trace`) are append-only JSONL.  All three read and append
through this module: a torn final line — a writer killed mid-``write`` — is
dropped on read and cut off before the next append; any other unusable line
is an :class:`~repro.core.errors.InvalidParameterError` naming the path and
the line.  It imports nothing but the stdlib and :mod:`repro.core.errors`,
so loading a trace does not load the campaign engine.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Callable

from .errors import InvalidParameterError

__all__ = ["open_for_append", "read_records"]


def read_records(
    path: "Path | str", lines: "list[str]", first: int, build: "Callable[[Any], Any]"
) -> "dict[int, Any]":
    """Decode JSONL ``lines`` through ``build``; ``lines[0]`` is line ``first`` of ``path``.

    Returns the built records keyed by their 1-based line number, in file
    order.  Only the file's last line may fail to decode — the torn tail of
    a writer killed mid-``write`` — and it is dropped.  Any other
    undecodable line, and any line ``build`` cannot use, is an
    :class:`InvalidParameterError` naming the path and the line.
    """
    records = {}
    for number, line in enumerate(lines, first):
        if not line.strip():
            continue
        try:
            records[number] = build(json.loads(line))
        except (LookupError, TypeError, ValueError) as exc:
            if isinstance(exc, json.JSONDecodeError) and number == first + len(lines) - 1:
                break
            raise InvalidParameterError(
                f"{path}, line {number}: not a usable record ({exc!r})"
            ) from None
    return records


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
