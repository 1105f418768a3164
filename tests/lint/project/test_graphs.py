"""Fact-layer sanity: symbol table, import records and map, package graph."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.project import ProjectContext
from repro.lint.project.model import extract_module_facts

FIXTURES = Path(__file__).resolve().parents[1] / "project_fixtures"


@pytest.fixture(scope="module")
def pctx():
    return ProjectContext.build(FIXTURES / "proj_bad" / "repro", allowlist=())


class TestSymbolTable:
    def test_modules_discovered(self, pctx):
        assert "repro.core.solvers" in pctx.facts
        assert "repro.engine.dispatch" in pctx.facts

    def test_annassign_binding_classified_mutable(self, pctx):
        # STRATEGIES uses an annotated assignment; the dict literal must
        # still classify as a mutable module-level binding.
        binding = pctx.facts["repro.core.registry"].binding("STRATEGIES")
        assert binding is not None
        assert pctx.binding_is_mutable(binding)

    def test_underscore_class_instance_is_mutable(self, pctx):
        resolved = pctx.resolve_module_binding("repro.core.solvers", "_COUNTS")
        assert resolved is not None
        assert pctx.binding_is_mutable(resolved[1])

    def test_frozen_dataclass_detected(self, pctx):
        assert "WorkUnit" in pctx.frozen_class_names


class TestImportResolution:
    def test_imported_name_resolves_to_its_binding(self, pctx):
        home, binding = pctx.resolve_module_binding("repro.core.uses_engine", "Cache")
        assert (home, binding.name, binding.kind) == ("repro.engine.cache", "Cache", "class")

    def test_unknown_name_resolves_to_nothing(self, pctx):
        assert pctx.resolve_module_binding("repro.core.solvers", "no_such") is None

    def test_deferred_imports_are_edges_and_the_module_body_wins_a_name(self):
        tree = ast.parse(
            "from .solvers import solve\n"
            "def late():\n"
            "    from ..engine.cache import Cache as solve\n"
            "if TYPE_CHECKING:\n"
            "    import repro.obs.clock\n"
        )
        records = extract_module_facts("repro.core.late", "late.py", tree).imports
        assert [(r.target, r.names) for r in records] == [
            ("repro.engine.cache", (("Cache", "solve"),)),
            ("repro.obs.clock", ()),
            ("repro.core.solvers", (("solve", "solve"),)),
        ]


class TestPackageGraph:
    def test_upward_edge_visible(self, pctx):
        records = pctx.facts["repro.core.uses_engine"].imports
        assert ("repro.engine.cache", 3) in {(r.target, r.lineno) for r in records}
