"""Positive/negative demonstrations of the project rules on the fixture corpora.

``proj_bad`` seeds deliberate violations of REP201, REP205 and REP206 (plus
the incidental read that accompanies the seeded write); every rule must fire
at precisely the seeded sites and nowhere else.  Its two layer inversions
(``core/uses_engine.py``, ``lint/helper.py``) are caught by
``test_shipped_tree.py::TestLayerContract``, which holds the layer ranks.  ``proj_clean`` is
the behaviorally-equivalent twin written with the blessed patterns; every
rule must stay silent on it.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import Severity, lint
from repro.lint.project import AllowEntry

FIXTURES = Path(__file__).resolve().parents[1] / "project_fixtures"
#: The whole-project rules; the corpora are built to exercise these alone.
PROJECT_RULES = ["REP201", "REP205", "REP206"]


def _lint(package, allowlist=(), rules=PROJECT_RULES):
    """The whole-project rules alone: the corpora are built for them."""
    return lint(package, rule_names=rules, allowlist=allowlist)


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
        assert _hits(bad_report, "REP201") == [("repro/core/solvers.py", 14)]

    def test_rep205_memo_purity(self, bad_report):
        assert _hits(bad_report, "REP205") == [
            ("repro/core/solvers.py", 13),  # ambient mutable read
            ("repro/core/solvers.py", 14),  # read half of the seeded write
        ]

    def test_rep206_dead_public_symbol(self, bad_report):
        assert _hits(bad_report, "REP206") == [
            ("repro/obs/clock.py", 4),  # named only in another module's strings
            ("repro/obs/constants.py", 3),  # exported via __all__
            ("repro/obs/constants.py", 9),  # public def outside __all__
        ]
        messages = " ".join(
            f.message for f in bad_report.findings if f.rule_id == "REP206"
        )
        assert "DEAD_LIMIT" in messages and "dead_window" in messages
        assert "monotonic_ns" in messages
        assert "LIVE_LIMIT" not in messages

    def test_nothing_else_fires(self, bad_report):
        assert len(bad_report.findings) == 6
        assert all(f.severity is Severity.ERROR for f in bad_report.findings)
        assert not bad_report.ok

    def test_findings_carry_evidence_chains(self, bad_report):
        (rep201,) = [f for f in bad_report.findings if f.rule_id == "REP201"]
        # definition site -> violation site
        assert [step.line for step in rep201.evidence] == [6, rep201.line]
        assert "binding `_COUNTS` defined here" in rep201.evidence[0].note


class TestCleanCorpusSilent:
    def test_no_findings(self, clean_report):
        assert clean_report.findings == ()
        assert clean_report.ok

    def test_same_rules_ran(self, clean_report):
        assert clean_report.files_checked == 9


_BOX = """\
_ITEMS = []


def add(item):
    _ITEMS.append(item){line_pragma}
"""


def _write_box(tmp_path, line_pragma=""):
    pkg = tmp_path / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "box.py").write_text(_BOX.format(line_pragma=line_pragma))
    return pkg


class TestSuppressionPlumbing:
    def test_violation_fires_without_suppression(self, tmp_path):
        report = _lint(_write_box(tmp_path), rules=["REP201"])
        assert _hits(report, "REP201") == [("repro/core/box.py", 5)]

    def test_per_line_pragma_suppresses(self, tmp_path):
        pkg = _write_box(
            tmp_path, line_pragma="  # lint: ignore[worker-global-write]"
        )
        report = _lint(pkg, rules=["REP201"])
        assert report.findings == ()

    def test_allowlist_entry_suppresses(self, tmp_path):
        pkg = _write_box(tmp_path)
        entry = AllowEntry(
            rule_id="REP201",
            module="repro.core.box",
            symbol="_ITEMS",
            justification="test: sanctioned site",
        )
        report = _lint(pkg, allowlist=(entry,), rules=["REP201"])
        assert report.findings == ()

    def test_allowlist_is_rule_scoped(self, tmp_path):
        pkg = _write_box(tmp_path)
        entry = AllowEntry(
            rule_id="REP205",  # wrong rule: must not silence REP201
            module="repro.core.box",
            symbol="_ITEMS",
            justification="test: wrong rule",
        )
        report = _lint(pkg, allowlist=(entry,), rules=["REP201"])
        assert _hits(report, "REP201") == [("repro/core/box.py", 5)]

    def test_entry_covers_its_own_symbol_only(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "core" / "tables.py").write_text(
            "TABLE = {}\nOTHER = {}\n\n\ndef a():\n    return TABLE\n"
            "\n\ndef b():\n    return OTHER\n"
        )
        for symbol, hits in (
            ("TABLE", [("repro/core/tables.py", 10)]),
            ("*", [("repro/core/tables.py", 6), ("repro/core/tables.py", 10)]),
        ):
            entry = AllowEntry(
                rule_id="REP205",
                module="repro.core.tables",
                symbol=symbol,
                justification="test: one named table",
            )
            report = _lint(pkg, allowlist=(entry,), rules=["REP205"])
            assert _hits(report, "REP205") == hits, symbol


def _write_tree(tmp_path, files):
    pkg = tmp_path / "repro"
    for relpath, source in files.items():
        path = pkg / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return pkg


_GLOBAL_WRITE = """\
_SEEN = {}


def note(key):
    _SEEN[key] = True
"""

_AMBIENT_READ = """\
_SCALE = {"alpha": 0.5}


def scale():
    return _SCALE["alpha"]
"""


class TestScopedModules:
    """REP201 polices the modules a worker runs (``WORKER_MODULES``) and
    REP205 the solver code (``repro.core``), with no call graph: a module is
    in or out by its name."""

    @pytest.mark.parametrize(
        "relpath, fires",
        [
            ("core/solver.py", True),
            ("obs/context.py", True),
            ("engine/memo.py", True),
            ("engine/batch.py", True),
            ("engine/executor.py", False),
            ("engine/plan.py", False),
            ("sim/scheduler.py", False),
        ],
    )
    def test_rep201_fires_only_in_worker_modules(self, tmp_path, relpath, fires):
        pkg = _write_tree(tmp_path, {relpath: _GLOBAL_WRITE})
        hits = _hits(_lint(pkg, rules=["REP201"]), "REP201")
        assert hits == ([(f"repro/{relpath}", 5)] if fires else [])

    @pytest.mark.parametrize(
        "relpath, fires",
        [
            ("core/solver.py", True),
            ("core/kernels/plane.py", True),
            ("obs/report.py", False),
            ("engine/batch.py", False),
        ],
    )
    def test_rep205_fires_only_in_core(self, tmp_path, relpath, fires):
        pkg = _write_tree(tmp_path, {relpath: _AMBIENT_READ})
        hits = _hits(_lint(pkg, rules=["REP205"]), "REP205")
        assert hits == ([(f"repro/{relpath}", 5)] if fires else [])

    @pytest.mark.parametrize(
        "rule, source",
        [
            ("REP201", "_SEEN = {}\n\n\ndef note(a, b):\n    _SEEN[a] = _SEEN[b] = 1\n"),
            ("REP205", "_SEEN = {}\n\n\ndef get(k):\n    return _SEEN[k] if k in _SEEN else 0\n"),
        ],
    )
    def test_one_finding_per_binding_per_line(self, tmp_path, rule, source):
        pkg = _write_tree(tmp_path, {"core/solver.py": source})
        assert _hits(_lint(pkg, rules=[rule]), rule) == [("repro/core/solver.py", 5)]

    def test_method_named_like_a_report_method_is_not_followed(self, tmp_path):
        """A solver's ``best.render()`` never made ``RunReport.render``'s
        module-level table solver state (it used to: method calls resolved
        by bare name pulled ``repro.obs.report`` onto the memo path)."""
        pkg = _write_tree(
            tmp_path,
            {
                "core/registry.py": """\
                    from .solver import solve


                    class StrategyInfo:
                        def __init__(self, func=None):
                            self.func = func


                    STRATEGIES = {"solve": StrategyInfo(func=solve)}
                """,
                "core/solver.py": """\
                    def solve(best):
                        return best.render()
                """,
                "obs/report.py": """\
                    _UNITS = {"s": 1.0}


                    class RunReport:
                        def render(self):
                            return str(_UNITS["s"])
                """,
            },
        )
        assert lint(pkg, rule_names=["REP205"], allowlist=()).findings == ()
