"""Lint engine plumbing: the one-run driver, reporters, and CLI entry points."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.cli import main as repro_main
from repro.lint import RULE_REGISTRY, lint
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).resolve().parent / "project_fixtures"

_VIOLATION = """\
def check(period: float, other_period: float) -> bool:
    return period == other_period
"""

_CLEAN = """\
import math


def check(period: float, other_period: float) -> bool:
    return math.isclose(period, other_period)
"""


@pytest.fixture
def violation_file(tmp_path: Path) -> Path:
    path = tmp_path / "src" / "repro" / "core" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(_VIOLATION)
    return path


@pytest.fixture
def clean_file(tmp_path: Path) -> Path:
    path = tmp_path / "src" / "repro" / "core" / "good.py"
    path.parent.mkdir(parents=True)
    path.write_text(_CLEAN)
    return path


class TestEngine:
    def test_registry_has_all_rules(self):
        assert [rule.id for rule in RULE_REGISTRY.values()] == [
            *(f"REP10{i}" for i in range(1, 10)),
            "REP110",
            "REP111",
            *(f"REP20{i}" for i in range(1, 7)),
        ]

    def test_directory_walk_finds_violations(self, violation_file: Path):
        report = lint(violation_file.parents[1])
        assert not report.ok
        assert report.files_checked == 1
        assert [f.rule_id for f in report.findings] == ["REP101"]

    def test_findings_are_sorted_and_located(self, tmp_path: Path):
        path = tmp_path / "src" / "repro" / "core" / "multi.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def a(period: float, p2_period: float) -> bool:\n"
            "    print(period)\n"
            "    return period == p2_period\n"
        )
        report = lint(path.parents[1], project_root=tmp_path)
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        assert all(
            f.location.startswith("src/repro/core/multi.py:")
            for f in report.findings
        )

    def test_syntax_error_becomes_finding(self, tmp_path: Path):
        path = tmp_path / "pkg" / "broken.py"
        path.parent.mkdir()
        path.write_text("def oops(:\n")
        report = lint(path.parent)
        assert [f.rule_id for f in report.findings] == ["REP000"]
        assert report.files_checked == 1
        assert not report.ok

    def test_missing_path_raises(self, tmp_path: Path):
        with pytest.raises(FileNotFoundError):
            lint(tmp_path / "nope")

    def test_unknown_rule_raises(self, clean_file: Path):
        with pytest.raises(KeyError, match="available"):
            lint(clean_file.parents[1], rule_names=["no-such-rule"])

    def test_one_run_reports_a_broken_module_and_a_project_finding(
        self, tmp_path: Path, capsys
    ):
        """A module that does not parse does not hide the rest of the tree
        from the whole-project rules, and both land in one report."""
        package = tmp_path / "repro"
        (package / "engine").mkdir(parents=True)
        shutil.copy(
            FIXTURES / "proj_bad" / "repro" / "engine" / "cache.py",
            package / "engine" / "cache.py",
        )
        (package / "broken.py").write_text("def oops(:\n")
        assert lint_main([str(package)]) == 1
        out = capsys.readouterr().out
        assert "repro/broken.py:1:9: error REP000 [syntax-error]" in out
        assert "repro/engine/cache.py:16:0: error REP202 [lock-discipline]" in out
        assert "in 2 file(s)" in out

    def test_each_module_is_parsed_once(self, shipped_lint):
        package_files = {
            str(path.resolve()) for path in shipped_lint.package.rglob("*.py")
        }
        assert package_files <= set(shipped_lint.parses)
        assert set(shipped_lint.parses.values()) == {1}


class TestStandaloneCli:
    def test_exit_one_on_violations(self, violation_file: Path, capsys):
        assert lint_main([str(violation_file.parents[1])]) == 1
        out = capsys.readouterr().out
        assert "REP101" in out
        assert "hint:" in out

    def test_exit_zero_on_clean_file(self, clean_file: Path, capsys):
        assert lint_main([str(clean_file.parents[1])]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_format(self, violation_file: Path, capsys):
        package = str(violation_file.parents[1])
        assert lint_main([package, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["ok"] is False
        assert payload["findings"][0]["rule_id"] == "REP101"
        assert payload["findings"][0]["path"] == "src/repro/core/bad.py"

    def test_root_sets_the_rendered_paths(self, violation_file: Path, capsys):
        package = violation_file.parents[1]
        assert lint_main([str(package), "--root", str(package)]) == 1
        assert capsys.readouterr().out.startswith("core/bad.py:2:")

    def test_rule_selection(self, violation_file: Path, capsys):
        package = str(violation_file.parents[1])
        assert lint_main([package, "--rules", "no-print"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP101", "REP108", "REP201", "REP206"):
            assert rule_id in out

    @pytest.mark.parametrize(
        "selector, header",
        [
            ("REP101", "REP101 [float-equality]"),
            ("lock-discipline", "REP202 [lock-discipline]"),
        ],
    )
    def test_explain_finds_either_rule_shape(self, selector, header, capsys):
        assert lint_main(["--explain", selector]) == 0
        assert capsys.readouterr().out.startswith(header)

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--explain", "REP999"]) == 2
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, clean_file: Path, capsys):
        assert lint_main([str(clean_file.parents[1]), "--rules", "bogus"]) == 2
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path: Path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["--project"], ["--rule", "REP101"], ["--rule=REP101"]],
        ids=["project", "rule", "rule-equals"],
    )
    def test_retired_flags_exit_two(self, argv: "list[str]", capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestReproCliIntegration:
    def test_repro_lint_subcommand(self, violation_file: Path, capsys):
        assert repro_main(["lint", str(violation_file.parents[1])]) == 1
        assert "REP101" in capsys.readouterr().out

    def test_repro_lint_clean(self, clean_file: Path, capsys):
        assert repro_main(["lint", str(clean_file.parents[1])]) == 0
        capsys.readouterr()


class TestShippedTreeIsClean:
    def test_src_repro_has_no_findings(self, shipped_lint):
        """The acceptance gate: the installed ``repro`` package lints clean."""
        assert shipped_lint.package == Path(repro.__file__).resolve().parent
        report = shipped_lint.report
        assert report.ok, "\n".join(str(f) for f in report.findings)
        assert report.files_checked > 50
