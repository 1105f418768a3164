"""Importing a module loads only what that module uses.

Each probe imports one module in a fresh interpreter and reads
``sys.modules``: which modules load is a property of the import graph, so
these tests assert module sets and read no clock.  A package ``__init__``
that re-exports a heavy submodule, or a leaf that takes a helper from a
higher layer, turns them red.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest


def _loaded(module: str) -> set[str]:
    """The modules a fresh interpreter holds after ``import module``."""
    probe = (
        f"import json, sys\nimport {module}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


def _ours(modules: set[str]) -> set[str]:
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


def test_import_repro_loads_nothing_else():
    loaded = _loaded("repro")
    assert "numpy" not in loaded
    assert _ours(loaded) == {"repro"}


def test_lint_loads_no_numpy_and_nothing_outside_lint():
    loaded = _loaded("repro.lint")
    assert "numpy" not in loaded
    assert {
        name for name in _ours(loaded)
        if name != "repro" and not name.startswith("repro.lint")
    } == set()


@pytest.mark.parametrize(
    "module, absent_prefixes",
    [
        (
            "repro.core.registry",
            (
                "repro.engine",
                "repro.sim",
                "repro.obs.report",
                "repro.obs.export",
                "repro.obs.profile",
                "repro.core.power",
                "repro.core.herad_reference",
                "repro.core.norep",
                "repro.core.warmstart",
            ),
        ),
        ("repro.sim", ("repro.engine",)),
    ],
)
def test_module_does_not_load_what_it_never_calls(module, absent_prefixes):
    strays = sorted(
        name for name in _ours(_loaded(module))
        if any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in absent_prefixes
        )
    )
    assert strays == []
