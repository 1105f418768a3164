"""Finding reporters: human text, machine JSON, and SARIF 2.1.0.

The SARIF output follows the static-analysis results interchange format
consumed by GitHub code scanning: one run, one driver, the rule metadata
deduplicated into ``tool.driver.rules``, and each finding's evidence chain
mapped onto ``relatedLocations`` so the cross-module reasoning survives
the upload.
"""

from __future__ import annotations

import json

from .engine import LintReport
from .findings import Finding, Severity

__all__ = ["render_text", "render_json", "render_sarif", "REPORTERS"]

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: LintReport) -> str:
    """One line per finding plus a summary, in ``file:line:col`` format.

    Project-wide findings carry their evidence chain as indented
    ``path:line`` steps under the finding line.
    """
    lines = []
    for f in report.findings:
        lines.append(
            f"{f.location}: {f.severity} {f.rule_id} [{f.rule_name}] "
            f"{f.message}\n    hint: {f.hint}"
        )
        for step in f.evidence:
            lines.append(f"    evidence: {step.location}: {step.note}")
    count = len(report.findings)
    noun = "finding" if count == 1 else "findings"
    lines.append(
        f"{count} {noun} ({len(report.errors)} error(s)) in "
        f"{report.files_checked} file(s)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The report as a stable JSON document."""
    return json.dumps(
        {
            "findings": [f.to_dict() for f in report.findings],
            "summary": {
                "findings": len(report.findings),
                "errors": len(report.errors),
                "files_checked": report.files_checked,
                "ok": report.ok,
            },
        },
        indent=2,
        sort_keys=True,
    )


def _rule_metadata() -> dict[str, dict[str, str]]:
    """id -> {name, description} for every registered rule."""
    from .base import RULE_REGISTRY

    meta: dict[str, dict[str, str]] = {
        "REP000": {
            "name": "syntax-error",
            "description": "file does not parse",
        }
    }
    for rule in RULE_REGISTRY.values():
        meta[rule.id] = {"name": rule.name, "description": rule.description}
    return meta


def _sarif_location(path: str, line: int, col: int = 0) -> dict[str, object]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": line, "startColumn": col + 1},
        }
    }


def _sarif_result(finding: Finding, rule_index: dict[str, int]) -> dict[str, object]:
    result: dict[str, object] = {
        "ruleId": finding.rule_id,
        "ruleIndex": rule_index[finding.rule_id],
        "level": "error" if finding.severity is Severity.ERROR else "warning",
        "message": {"text": f"{finding.message} (hint: {finding.hint})"},
        "locations": [
            _sarif_location(finding.path, finding.line, finding.col)
        ],
    }
    if finding.evidence:
        result["relatedLocations"] = [
            {
                **_sarif_location(step.path, step.line),
                "message": {"text": step.note},
            }
            for step in finding.evidence
        ]
    return result


def render_sarif(report: LintReport) -> str:
    """The report as a SARIF 2.1.0 document (GitHub code scanning)."""
    meta = _rule_metadata()
    used_ids = sorted({f.rule_id for f in report.findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(used_ids)}
    rules = [
        {
            "id": rule_id,
            "name": meta.get(rule_id, {}).get("name", rule_id),
            "shortDescription": {
                "text": meta.get(rule_id, {}).get("description", rule_id)
            },
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id in used_ids
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": [
                    _sarif_result(f, rule_index) for f in report.findings
                ],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


#: Reporter name -> renderer.
REPORTERS = {"text": render_text, "json": render_json, "sarif": render_sarif}
