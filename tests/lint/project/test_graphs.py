"""Graph-builder sanity: symbol table, import map, call graph, entries."""

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
    def test_cross_module_class_resolves_to_ctor(self, pctx):
        fids = pctx.resolve_callable("repro.core.uses_engine", "Cache")
        assert fids == ("repro.engine.cache:Cache.__init__",)

    def test_unknown_name_resolves_to_nothing(self, pctx):
        assert pctx.resolve_callable("repro.core.solvers", "no_such") == ()

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


class TestCallGraph:
    def test_direct_call_edge(self, pctx):
        edges = dict(pctx.call_edges["repro.core.solvers:solve_chain_batch"])
        assert "repro.core.solvers:solve_chain" in edges

    def test_reachability_walks_edges(self, pctx):
        reach = pctx.reachable_from(["repro.core.solvers:solve_chain_batch"])
        assert "repro.core.solvers:solve_chain" in reach
        parent, _ = reach["repro.core.solvers:solve_chain"]
        assert parent == "repro.core.solvers:solve_chain_batch"


class TestEntryDiscovery:
    def test_strategy_roots_found(self, pctx):
        roots = {(r.fid, r.keyword) for r in pctx.strategy_roots}
        assert roots == {
            ("repro.core.solvers:solve_chain", "func"),
            ("repro.core.solvers:solve_chain_batch", "batch_func"),
        }

    def test_dispatch_site_found(self, pctx):
        sites = {s.module: s for s in pctx.dispatch_sites}
        assert set(sites) == {
            "repro.engine.dispatch",
            "repro.engine.shmem",
        }
        site = sites["repro.engine.dispatch"]
        assert site.method == "map"
        assert site.target_fids == ("repro.engine.dispatch:run_unit",)

    def test_worker_entries_union(self, pctx):
        entries = pctx.worker_entry_points()
        assert "repro.engine.dispatch:run_unit" in entries
        assert "repro.core.solvers:solve_chain" in entries


class TestPackageGraph:
    def test_upward_edge_visible(self, pctx):
        graph = pctx.package_import_graph()
        targets = {tgt for tgt, _, _ in graph.get("core", set())}
        assert "engine" in targets  # the seeded inversion
