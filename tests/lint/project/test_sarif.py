"""SARIF 2.1.0 reporter: schema shape GitHub code scanning accepts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import LintReport, lint, render_sarif

FIXTURES = Path(__file__).resolve().parents[1] / "project_fixtures"
#: The whole-project rules; the corpus is built to exercise these alone.
PROJECT_RULES = [f"REP20{i}" for i in range(1, 7)]


@pytest.fixture(scope="module")
def sarif():
    report = lint(
        FIXTURES / "proj_bad" / "repro", rule_names=PROJECT_RULES, allowlist=()
    )
    return json.loads(render_sarif(report))


class TestSarifShape:
    def test_top_level_envelope(self, sarif):
        assert sarif["version"] == "2.1.0"
        assert sarif["$schema"].endswith("sarif-schema-2.1.0.json")
        assert isinstance(sarif["runs"], list) and len(sarif["runs"]) == 1

    def test_driver_and_rule_metadata(self, sarif):
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(set(ids))  # deduplicated, stable order
        assert set(ids) == {
            "REP201", "REP202", "REP203", "REP204", "REP205", "REP206",
        }
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] == "error"

    def test_results_reference_rules_by_index(self, sarif):
        driver = sarif["runs"][0]["tool"]["driver"]
        ids = [rule["id"] for rule in driver["rules"]]
        for result in sarif["runs"][0]["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] == "error"
            assert result["message"]["text"]
            (location,) = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"].endswith(".py")
            assert physical["region"]["startLine"] >= 1
            assert physical["region"]["startColumn"] >= 1

    def test_evidence_maps_to_related_locations(self, sarif):
        rep201 = [
            r
            for r in sarif["runs"][0]["results"]
            if r["ruleId"] == "REP201"
        ]
        assert rep201 and all("relatedLocations" in r for r in rep201)
        related = rep201[0]["relatedLocations"]
        assert len(related) >= 2  # definition site + call path + site
        for step in related:
            assert step["message"]["text"]
            assert step["physicalLocation"]["region"]["startLine"] >= 1

    def test_empty_report_renders_valid_document(self):
        document = json.loads(
            render_sarif(LintReport(findings=(), files_checked=0))
        )
        assert document["runs"][0]["results"] == []
        assert document["runs"][0]["tool"]["driver"]["rules"] == []
