"""The perf gate: two ledgers judged by the benchmark contract's own bounds.

``python perf/run.py`` measures and writes ``perf/out/ledger.json``; this
module *judges* two such files.  For every workload x end-to-end metric
that ``BENCHMARK.json`` names, the candidate may be worse than the baseline
by at most that metric's ``bound``, in its ``better`` direction — the rule
the PR pipeline applies, read from the file it reads.  A workload's
failed-op share may not rise: a failed op counts as missing, never as fast.

A workload missing from the candidate fails (a silently vanished workload
is a regression of the bench itself); one missing from the baseline is
skipped, and the row says so.  Two ledgers are comparable only when taken
the same way: a pair that differs in ``quick`` (input sizes) or
``provenance.affinity`` (usable cores — a ``--jobs`` workload on one core
measures the scheduler, not the change) is refused, not judged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.errors import InvalidParameterError

__all__ = ["Row", "load_object", "compare", "render_rows"]


@dataclass(frozen=True, slots=True)
class Row:
    """Verdict on one (workload, metric) cell of a (baseline, candidate) pair.

    ``metric`` is an end-to-end metric of the contract, ``"failed_ops"``, or
    ``"*"`` for a workload absent from one side (both values ``None``).
    """

    workload: str
    metric: str
    baseline: "float | None"
    candidate: "float | None"
    passed: bool
    detail: str


def load_object(path: "str | Path") -> "dict[str, Any]":
    """Parse a file holding one JSON object (a ledger or the contract)."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidParameterError(f"{path} is not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise InvalidParameterError(
            f"{path} must be a JSON object, got {type(document).__name__}"
        )
    return document


def _number(node: Any, what: str, *keys: str, positive: bool = True) -> float:
    """``node[k0][k1]...`` as a float; a ledger without one is malformed."""
    path = ".".join(keys)
    try:
        for key in keys:
            node = node[key]
        value = float(node)
    except (KeyError, TypeError, ValueError):
        raise InvalidParameterError(f"{what} has no number at {path}") from None
    if positive and not value > 0:
        raise InvalidParameterError(f"{what}: {path} is {value!r}, not positive")
    return value


def _failed_share(result: Any, what: str) -> float:
    return _number(result, what, "failed", positive=False) / _number(result, what, "attempted")


def _how_taken(ledger: "dict[str, Any]") -> "dict[str, Any]":
    provenance = ledger.get("provenance")
    affinity = provenance.get("affinity") if isinstance(provenance, dict) else None
    return {"quick": ledger.get("quick"), "provenance.affinity": affinity}


def compare(
    baseline: "dict[str, Any]", candidate: "dict[str, Any]", contract: "dict[str, Any]"
) -> "tuple[Row, ...]":
    """Judge ledger ``candidate`` against ledger ``baseline`` under ``contract``."""
    for side, ledger in (("baseline", baseline), ("candidate", candidate)):
        if not isinstance(ledger.get("results"), dict):
            raise InvalidParameterError(f"{side} ledger has no 'results' object")
    theirs = _how_taken(candidate)
    for key, ours in _how_taken(baseline).items():
        if ours != theirs[key]:
            raise InvalidParameterError(
                f"ledgers are not comparable: {key} is {ours!r} in the "
                f"baseline and {theirs[key]!r} in the candidate"
            )
    try:
        workloads = [str(workload["name"]) for workload in contract["workloads"]]
        metrics = [
            (str(metric["name"]), metric["better"] == "lower", float(metric["bound"]))
            for metric in contract["end_to_end"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed benchmark contract: {exc!r}") from None
    rows: "list[Row]" = []
    for workload in workloads:
        before = baseline["results"].get(workload)
        after = candidate["results"].get(workload)
        if before is None:
            rows.append(Row(workload, "*", None, None, True, "not in baseline (skipped)"))
            continue
        if after is None:
            rows.append(Row(workload, "*", None, None, False, "missing from candidate"))
            continue
        ours_at, theirs_at = f"baseline {workload}", f"candidate {workload}"
        for name, lower_is_better, bound in metrics:
            old = _number(before, ours_at, "metrics", name, "value")
            new = _number(after, theirs_at, "metrics", name, "value")
            change = (new - old) / old
            passed = (change if lower_is_better else -change) <= bound
            detail = (
                f"{change:+.1%}, {'within' if passed else 'beyond'} the {bound:.0%} "
                f"bound; {'lower' if lower_is_better else 'higher'} is better"
            )
            rows.append(Row(workload, name, old, new, passed, detail))
        old, new = _failed_share(before, ours_at), _failed_share(after, theirs_at)
        detail = "share of ops that failed " + ("did not rise" if new <= old else "rose")
        rows.append(Row(workload, "failed_ops", old, new, new <= old, detail))
    return tuple(rows)


def render_rows(rows: "tuple[Row, ...]") -> str:
    """Human-readable verdict table (one line per row, failures flagged)."""
    lines = ["== bench compare =="]
    for row in rows:
        values = ""
        if row.baseline is not None and row.candidate is not None:
            values = f" {row.baseline:.6g} -> {row.candidate:.6g}"
        lines.append(
            f"  {'ok  ' if row.passed else 'FAIL'} {row.workload} {row.metric}:"
            f"{values} ({row.detail})"
        )
    failed = sum(1 for row in rows if not row.passed)
    lines.append(f"{len(rows)} rows, " + (f"{failed} failed" if failed else "all passed"))
    return "\n".join(lines)
