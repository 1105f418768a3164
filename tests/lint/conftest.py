"""Fixtures for the lint-engine tests: lint small inline sources."""

from __future__ import annotations

import ast
import textwrap
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.lint import lint

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


@pytest.fixture(scope="session")
def shipped_lint():
    """One full ``repro lint`` of the shipped tree, shared by the gates.

    ``report`` is its report, ``seconds`` its wall time, and ``parses``
    counts the ``ast.parse`` calls of that run by file name.
    """
    parses: Counter[str] = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    ast.parse = counting_parse
    try:
        start = time.monotonic()
        report = lint(PACKAGE, project_root=ROOT)
        seconds = time.monotonic() - start
    finally:
        ast.parse = real_parse
    return SimpleNamespace(
        package=PACKAGE, report=report, seconds=seconds, parses=parses
    )


@pytest.fixture
def lint_source(tmp_path: Path):
    """Lint a dedented source snippet written at a package-relative path.

    The package is ``tmp_path/src/repro`` and the relative path controls
    the module name (and therefore which path-scoped rules apply):
    ``src/repro/core/sample.py`` lints as ``repro.core.sample``.
    """

    def _lint(
        source: str,
        relpath: str = "src/repro/core/sample.py",
        rules: "list[str] | None" = None,
    ):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint(
            tmp_path / "src" / "repro", rule_names=rules, project_root=tmp_path
        ).findings

    return _lint
