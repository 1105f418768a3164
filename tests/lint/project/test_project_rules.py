"""Positive/negative demonstrations of REP201-REP206 on the fixture corpora.

``proj_bad`` seeds exactly one deliberate violation per rule (plus the
incidental read that accompanies the seeded write); every rule must fire
at precisely the seeded sites and nowhere else.  ``proj_clean`` is the
behaviorally-equivalent twin written with the blessed patterns; every
rule must stay silent on it.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import Severity, lint
from repro.lint.project import AllowEntry

FIXTURES = Path(__file__).resolve().parents[1] / "project_fixtures"


def _lint(package, allowlist=()):
    """The whole-project rules alone: the corpora are built for them."""
    return lint(
        package, rule_names=[f"REP20{i}" for i in range(1, 7)],
        allowlist=allowlist,
    )


@pytest.fixture(scope="module")
def bad_report():
    return _lint(FIXTURES / "proj_bad" / "repro")


@pytest.fixture(scope="module")
def clean_report():
    return _lint(FIXTURES / "proj_clean" / "repro")


def _hits(report, rule_id):
    return sorted(
        (f.path, f.line) for f in report.findings if f.rule_id == rule_id
    )


class TestSeededCorpusFires:
    def test_rep201_worker_global_write(self, bad_report):
        assert _hits(bad_report, "REP201") == [("repro/core/solvers.py", 17)]

    def test_rep202_lock_discipline(self, bad_report):
        assert _hits(bad_report, "REP202") == [("repro/engine/cache.py", 16)]

    def test_rep203_fork_unsafe_capture(self, bad_report):
        assert _hits(bad_report, "REP203") == [
            ("repro/engine/dispatch.py", 22),
            ("repro/engine/shmem.py", 22),
        ]

    def test_rep204_layer_boundary(self, bad_report):
        assert _hits(bad_report, "REP204") == [
            ("repro/core/uses_engine.py", 3),
            ("repro/lint/helper.py", 3),
        ]

    def test_rep205_memo_purity(self, bad_report):
        assert _hits(bad_report, "REP205") == [
            ("repro/core/solvers.py", 15),  # stdlib clock
            ("repro/core/solvers.py", 16),  # ambient mutable read
            ("repro/core/solvers.py", 17),  # read half of the seeded write
        ]

    def test_rep206_dead_public_symbol(self, bad_report):
        assert _hits(bad_report, "REP206") == [("repro/obs/constants.py", 3)]
        (finding,) = [
            f for f in bad_report.findings if f.rule_id == "REP206"
        ]
        assert "DEAD_LIMIT" in finding.message
        assert "LIVE_LIMIT" not in finding.message

    def test_nothing_else_fires(self, bad_report):
        assert len(bad_report.findings) == 10
        assert all(f.severity is Severity.ERROR for f in bad_report.findings)
        assert not bad_report.ok

    def test_findings_carry_evidence_chains(self, bad_report):
        (rep201,) = [f for f in bad_report.findings if f.rule_id == "REP201"]
        notes = [step.note for step in rep201.evidence]
        # definition site -> call path -> violation site
        assert any("binding `_COUNTS` defined here" in n for n in notes)
        assert any("worker entry point" in n for n in notes)
        assert rep201.evidence[-1].line == rep201.line


class TestCleanCorpusSilent:
    def test_no_findings(self, clean_report):
        assert clean_report.findings == ()
        assert clean_report.ok

    def test_same_rules_ran(self, clean_report):
        assert clean_report.files_checked == 11


_BOX = """\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def add(self, item):
        with self._lock:
            self._items.append(item)

    def peek(self):{pragma}
        return self._items[0]{line_pragma}
"""


def _write_box(tmp_path, pragma="", line_pragma=""):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "box.py").write_text(
        textwrap.dedent(_BOX).format(pragma=pragma, line_pragma=line_pragma)
    )
    return pkg


class TestSuppressionPlumbing:
    def test_violation_fires_without_suppression(self, tmp_path):
        report = _lint(_write_box(tmp_path))
        assert _hits(report, "REP202") == [("repro/box.py", 14)]

    def test_per_line_pragma_suppresses(self, tmp_path):
        pkg = _write_box(
            tmp_path, line_pragma="  # lint: ignore[lock-discipline]"
        )
        report = _lint(pkg)
        assert report.findings == ()

    def test_allowlist_entry_suppresses(self, tmp_path):
        pkg = _write_box(tmp_path)
        entry = AllowEntry(
            rule_id="REP202",
            module="repro.box",
            symbol="Box.peek",
            justification="test: sanctioned site",
        )
        report = _lint(pkg, allowlist=(entry,))
        assert report.findings == ()

    def test_allowlist_is_rule_scoped(self, tmp_path):
        pkg = _write_box(tmp_path)
        entry = AllowEntry(
            rule_id="REP201",  # wrong rule: must not silence REP202
            module="repro.box",
            symbol="Box.peek",
            justification="test: wrong rule",
        )
        report = _lint(pkg, allowlist=(entry,))
        assert _hits(report, "REP202") == [("repro/box.py", 14)]
