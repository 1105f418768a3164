"""The shipped tree passes the project tier, and the layer contract holds.

These tests are the CI gate the ISSUE asks for: any future import that
inverts a layer, any new worker-side global write, and any stale
allowlist entry fails here before it fails in production.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from repro.lint import lint_project
from repro.lint.project import ALLOWLIST, ProjectContext
from repro.lint.project.rules import LAYER_RANKS

ROOT = Path(__file__).resolve().parents[3]
PACKAGE = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def pctx():
    return ProjectContext.build(PACKAGE, project_root=ROOT)


class TestShippedTreeClean:
    def test_project_lint_exits_clean(self):
        report = lint_project(PACKAGE, project_root=ROOT)
        assert report.findings == (), [f.location for f in report.findings]
        assert report.ok

    def test_allowlist_entries_are_all_live(self):
        """Every allowlist entry suppresses a real finding (no stale entries).

        With the allowlist disabled, the only findings that appear are at
        the sanctioned modules for the sanctioned rules — nothing more
        (the tree is otherwise clean) and nothing less (no entry is dead
        weight).
        """
        bare = lint_project(PACKAGE, project_root=ROOT, allowlist=())
        reappeared = {(f.rule_id, f.path) for f in bare.findings}
        sanctioned = {
            (entry.rule_id, str(Path(*entry.module.split("."))) + ".py")
            for entry in ALLOWLIST
        }
        assert reappeared == {
            (rule_id, f"src/{path}") for rule_id, path in sanctioned
        }

    def test_allowlist_entries_carry_justifications(self):
        for entry in ALLOWLIST:
            assert len(entry.justification) > 20, entry


class TestLayerContract:
    def test_every_import_flows_downward(self, pctx):
        """The REP204 contract, asserted structurally: rank(src) > rank(tgt)."""
        graph = pctx.package_import_graph()
        for src_pkg, edges in graph.items():
            for tgt_pkg, module, lineno in edges:
                if src_pkg == tgt_pkg:
                    continue
                assert LAYER_RANKS[src_pkg] > LAYER_RANKS[tgt_pkg], (
                    f"{module}:{lineno} imports {tgt_pkg} from {src_pkg}: "
                    f"layer inversion"
                )

    def test_lint_package_is_stdlib_only(self, pctx):
        for module, facts in pctx.facts.items():
            if not module.startswith("repro.lint"):
                continue
            for record in facts.imports:
                target = record.target
                ok = (
                    target == "repro.lint"
                    or target.startswith("repro.lint.")
                    or target.split(".", 1)[0] in sys.stdlib_module_names
                )
                assert ok, f"{module} imports {target}"

    def test_known_layers_all_ranked(self, pctx):
        packages = {
            module.split(".")[1]
            for module in pctx.facts
            if module.count(".") >= 1
        }
        assert packages <= set(LAYER_RANKS), packages - set(LAYER_RANKS)


def _star_subscripts(source: str) -> list[int]:
    """Lines indexing with a bare ``x[a, *b]`` — PEP 646, a ``SyntaxError``
    before 3.11.  The parenthesised ``x[(a, *b)]`` is an ordinary tuple
    display and parses to the *same* tree, so the two are told apart by
    position: a bare tuple starts where its first element does.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Tuple)
        and any(isinstance(elt, ast.Starred) for elt in node.slice.elts)
        and (node.slice.lineno, node.slice.col_offset)
        == (node.slice.elts[0].lineno, node.slice.elts[0].col_offset)
    ]


class TestPython310Grammar:
    """``requires-python >= 3.10`` and CI's 3.10 job: nothing under ``src/``
    may need the 3.11 grammar just to import."""

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="3.10 cannot parse the bad form"
    )
    def test_detector_tells_the_two_forms_apart(self):
        assert _star_subscripts("x[:, :, *grid]\ny[*grid]") == [1, 2]
        assert _star_subscripts("x[(slice(None), *grid)]\ny[z][(*grid,)]") == []

    def test_no_star_subscript_under_src(self):
        found = {
            str(path.relative_to(ROOT)): lines
            for path in sorted(PACKAGE.rglob("*.py"))
            if (lines := _star_subscripts(path.read_text()))
        }
        assert not found, found


class TestPerformance:
    def test_full_build_and_rules_under_ten_seconds(self):
        import time

        start = time.monotonic()
        lint_project(PACKAGE, project_root=ROOT)
        assert time.monotonic() - start < 10.0
