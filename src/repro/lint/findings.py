"""The lint engine's data model: findings and severities.

A :class:`Finding` is one rule violation anchored to a ``file:line:col``
location, carrying the rule identity, a human message, and a concrete fix
hint.  Findings are plain data — rendering lives in
:mod:`repro.lint.reporters` — so they can be sorted, filtered, serialized
to JSON, and asserted on in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = ["Severity", "EvidenceStep", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the build (non-zero ``repro lint`` exit);
    ``WARNING`` findings are reported but do not affect the exit code.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class EvidenceStep:
    """One link in a finding's evidence chain.

    Project-wide rules justify a finding with the sites that connect cause
    to effect — e.g. a binding's definition site, then the violation site.
    Each step is one location plus a note saying what role it plays.
    """

    path: str
    line: int
    note: str

    @property
    def location(self) -> str:
        """The clickable ``path:line`` anchor of this step."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule_id: stable rule identifier (e.g. ``REP101``).
        rule_name: human slug of the rule (e.g. ``float-equality``).
        message: what is wrong, specific to this occurrence.
        hint: how to fix it (rule-level guidance, possibly specialized).
        path: file path, relative to the linted root when possible.
        line: 1-based source line.
        col: 0-based source column (AST convention).
        severity: :class:`Severity` of the finding.
        evidence: the steps from definition site to violation site
            attached by project-wide rules; empty for per-file rules.
    """

    rule_id: str
    rule_name: str
    message: str
    hint: str
    path: str
    line: int
    col: int
    severity: Severity = Severity.ERROR
    evidence: tuple[EvidenceStep, ...] = ()

    @property
    def location(self) -> str:
        """The clickable ``path:line:col`` anchor."""
        return f"{self.path}:{self.line}:{self.col}"

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable ordering: by file, line, column, then rule id."""
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (used by the JSON reporter)."""
        payload = {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
        if self.evidence:
            payload["evidence"] = [step.to_dict() for step in self.evidence]
        return payload
