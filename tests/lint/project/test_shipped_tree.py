"""The shipped tree passes every lint rule, and the layer contract holds.

These tests are a CI gate: any future import that inverts a layer, any new
worker-side global write, and any stale allowlist entry fails here before it
fails in production.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import io
import re
import shutil
import sys
import tokenize
from pathlib import Path

import pytest

from repro import engine
from repro.cli import _EXPERIMENTS, build_parser
from repro.lint import RULE_REGISTRY, ProjectRule, lint
from repro.lint.project import ALLOWLIST, ProjectContext
from repro.lint.project.model import ImportRecord, ModuleFacts, extract_module_facts

ROOT = Path(__file__).resolve().parents[3]
PACKAGE = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def pctx():
    return ProjectContext.build(PACKAGE, project_root=ROOT)


class TestShippedTreeClean:
    def test_project_lint_exits_clean(self, shipped_lint):
        """The acceptance gate: every rule passes on the shipped library."""
        report = shipped_lint.report
        assert report.findings == (), [f.location for f in report.findings]
        assert report.ok
        assert report.files_checked > 50

    def test_allowlist_entries_are_all_live(self):
        """Every allowlist entry suppresses a real finding (no stale entries).

        With the allowlist disabled, the only findings that appear are at
        the sanctioned modules for the sanctioned rules — nothing more
        (the tree is otherwise clean) and nothing less (no entry is dead
        weight).
        """
        project_rules = [
            rule.id
            for rule in RULE_REGISTRY.values()
            if issubclass(rule, ProjectRule)
        ]
        bare = lint(
            PACKAGE, rule_names=project_rules, project_root=ROOT, allowlist=()
        )
        reappeared = {(f.rule_id, f.path) for f in bare.findings}
        sanctioned = {
            (entry.rule_id, str(Path(*entry.module.split("."))) + ".py")
            for entry in ALLOWLIST
        }
        assert reappeared == {
            (rule_id, f"src/{path}") for rule_id, path in sanctioned
        }

    def test_every_pragma_names_a_registered_rule(self):
        """A pragma naming a retired or misspelt rule silences nothing and
        claims a check that no longer runs (REP106-REP108 and REP203 were
        retired; their ids are refused, and must not linger in a pragma)."""
        known = {r.name for r in RULE_REGISTRY.values()}
        known |= {r.id for r in RULE_REGISTRY.values()}
        stale = [
            f"{path.relative_to(ROOT)}:{token.start[0]}: {name.strip()}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if token.type == tokenize.COMMENT
            for names in re.findall(r"lint:\s*ignore\[([^\]]*)\]", token.string)
            for name in names.split(",")
            if name.strip() not in known
        ]
        assert stale == []

    def test_allowlist_entries_carry_justifications(self):
        for entry in ALLOWLIST:
            assert len(entry.justification) > 20, entry

    def test_ci_has_three_jobs_and_runs_only_files_the_tree_has(self):
        """A job that runs a file the tree lacks is red on every push and no
        tier-1 test notices (``perf-gate`` sat red for several PRs before
        PR 17).  A text scan: no YAML dependency."""
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        jobs = re.findall(r"^  ([\w-]+):$", text.partition("\njobs:\n")[2], re.M)
        assert jobs == ["tests", "lint", "perf"]
        paths = re.findall(
            r"(?:python|pytest)(?: -\S+)*? ([\w./-]+\.py|[\w.-]+/[\w./-]*)", text
        )
        assert paths and all((ROOT / path).exists() for path in paths), paths


DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md")


def _stale_references(text: str) -> list[str]:
    """The ``dir/file.py`` paths, ``repro.<module>`` dotted names and
    ``repro <subcommand>`` invocations in ``text`` that the tree lacks.

    A path may be written from any directory (``core/herad.py``,
    ``src/repro/core/herad.py``); a dotted name may end in one attribute of
    the module or package it names (``repro.core.herad.herad_batch``).
    """
    files = [
        "/" + path.relative_to(ROOT).as_posix()
        for top in ("src", "tests", "perf", "examples")
        for path in (ROOT / top).rglob("*.py")
    ]
    commands = next(
        action.choices for action in build_parser()._actions
        if action.dest == "experiment"
    )

    def module_exists(dotted: str) -> bool:
        here = PACKAGE
        for part in dotted.split(".")[1:]:
            if (here / part).is_dir():
                here = here / part
            elif (here / f"{part}.py").is_file():
                here = here / f"{part}.py"
            else:
                source = here if here.is_file() else here / "__init__.py"
                return re.search(rf"\b{part}\b", source.read_text()) is not None
        return True

    paths = re.findall(r"[\w./-]*/[\w.-]+\.py\b", text)
    dotted = re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text)
    invoked = re.findall(r"(?:-m |`)repro ([a-z][\w-]*)", text)
    return sorted(
        {p for p in paths if not any(f.endswith("/" + p.lstrip("./")) for f in files)}
        | {d for d in dotted if not module_exists(d)}
        | {f"repro {c}" for c in invoked if c not in commands}
    )


class TestDocsNameWhatExists:
    """ROADMAP item 4(d): a doc that names a file, module or command the tree
    no longer has misleads its next reader and nothing else notices."""

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_path_module_and_subcommand_resolves(self, doc):
        assert _stale_references((ROOT / doc).read_text()) == []

    def test_a_reference_to_something_the_tree_lacks_is_reported(self):
        text = (
            "`core/herad.py` and `src/repro/cli.py` feed `repro.core.herad.herad_batch`;"
            " run `repro table1` or `python -m repro lint`.  Gone: `engine/shm.py`,"
            " `repro.sdr.transceiver`, `repro.core.no_such_name`, `repro frobnicate`."
        )
        assert _stale_references(text) == [
            "engine/shm.py", "repro frobnicate",
            "repro.core.no_such_name", "repro.sdr.transceiver",
        ]


#: Architecture ranks: an import must flow strictly downward (a higher rank
#: may import a lower one, never sideways or up; one package may import
#: itself).  ``lint`` is rank 0 and, beyond that, imports the stdlib only.
LAYER_RANKS: dict[str, int] = {
    "obs": 0,
    "lint": 0,
    "core": 10,
    "platform": 20,
    "workloads": 20,
    "engine": 30,
    "sim": 35,
    "streampu": 40,
    "sdr": 50,
    "analysis": 60,
    "experiments": 70,
    "bench": 75,
    "cli": 80,
    "": 80,
    "__init__": 80,
    "__main__": 90,
}

PROJ_BAD = ROOT / "tests" / "lint" / "project_fixtures" / "proj_bad" / "repro"


def _package_of(module: str) -> "str | None":
    if module != "repro" and not module.startswith("repro."):
        return None
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _layer_inversions(facts: "dict[str, ModuleFacts]") -> "list[tuple[str, int]]":
    """``(module, line)`` of every import that does not flow strictly down
    ``LAYER_RANKS``, read from the raw import facts (no pragma or allowlist
    can hide an edge)."""
    found = []
    for module, mod_facts in sorted(facts.items()):
        src_pkg = _package_of(module)
        for record in mod_facts.imports:
            tgt_pkg = _package_of(record.target)
            if src_pkg is None or tgt_pkg is None or src_pkg == tgt_pkg:
                continue
            if LAYER_RANKS[src_pkg] <= LAYER_RANKS[tgt_pkg]:
                found.append((module, record.lineno))
    return found


def _lint_imports_beyond_stdlib(
    facts: "dict[str, ModuleFacts]",
) -> "list[tuple[str, int]]":
    """``(module, line)`` of every ``repro.lint`` import of anything but the
    stdlib and ``repro.lint`` itself."""
    return [
        (module, record.lineno)
        for module, mod_facts in sorted(facts.items())
        if module.startswith("repro.lint")
        for record in mod_facts.imports
        if not (
            record.target == "repro.lint"
            or record.target.startswith("repro.lint.")
            or record.target.split(".", 1)[0] in sys.stdlib_module_names
        )
    ]


class TestLayerContract:
    """The architecture layering, asserted structurally on the import facts
    (it was lint rule REP204, retired: these tests and CI's bare-interpreter
    lint step hold the same contract)."""

    def test_every_import_flows_downward(self, pctx):
        assert _layer_inversions(pctx.facts) == []

    def test_lint_package_is_stdlib_only(self, pctx):
        assert _lint_imports_beyond_stdlib(pctx.facts) == []

    def test_known_layers_all_ranked(self, pctx):
        packages = {
            module.split(".")[1]
            for module in pctx.facts
            if module.count(".") >= 1
        }
        assert packages <= set(LAYER_RANKS), packages - set(LAYER_RANKS)

    def test_the_seeded_inversions_are_caught(self):
        facts = ProjectContext.build(PROJ_BAD, allowlist=()).facts
        assert _layer_inversions(facts) == [
            ("repro.core.uses_engine", 3),
            ("repro.lint.helper", 3),
        ]
        assert _lint_imports_beyond_stdlib(facts) == [("repro.lint.helper", 3)]


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


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _called_names(tree: ast.AST) -> set[str]:
    """Last name of every call target: ``threading.Thread(...)`` -> ``Thread``."""
    return {
        func.attr if isinstance(func, ast.Attribute) else func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(func := node.func, (ast.Attribute, ast.Name))
    }


class TestOneThreadPerProcess:
    """The library runs one thread per process (DESIGN.md §10), which is why
    the tracer, the metrics registry, the memo and the ambient obs context
    hold no lock and no thread-local.  Product code starts no thread: it
    imports no ``threading``, calls no ``Thread`` or ``Timer``, and hangs no
    callback on a future (``add_done_callback`` runs it on the pool's
    manager thread).  ``engine.pool`` is the only pool site.  The change
    that needs a second thread has to say so here, and bring back the locks
    with it."""

    @pytest.fixture(scope="class")
    def trees(self):
        return {
            _module_name(path): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))
        }

    def test_the_modules_that_import_threading(self, trees):
        importers = {
            module
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name == "threading" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "threading")
        }
        assert importers == set()

    def test_the_only_sites_that_start_a_thread_or_a_pool(self, trees):
        def sites(*names: str) -> set[str]:
            return {m for m, tree in trees.items() if _called_names(tree) & set(names)}

        assert sites("Thread", "Timer") == set()
        assert sites("add_done_callback") == set()
        assert sites("ThreadPoolExecutor", "ProcessPoolExecutor", "Pool") == {"engine.pool"}

    def test_streampu_reads_no_clock(self, pctx):
        """The StreamPU model is a discrete-event simulation: its time is
        modelled, so no module of it imports a clock."""
        clocks = {
            record.target
            for module, facts in pctx.facts.items()
            if module.startswith("repro.streampu")
            for record in facts.imports
            if record.target in ("time", "repro.obs.clock")
        }
        assert clocks == set()


def _census_roots() -> list[ImportRecord]:
    """What somebody can run: ``python -m repro`` and the drivers its
    experiment commands load by name, ``python -m repro.lint``, and every
    import of the ledger (``perf/*.py``) and the examples."""
    entries = ["repro.__main__", "repro.lint.__main__"]
    entries += [f"repro.experiments.{name}" for name in _EXPERIMENTS]
    records = [ImportRecord(entry, (), None, 0) for entry in entries]
    for script in sorted([*ROOT.glob("perf/*.py"), *ROOT.glob("examples/*.py")]):
        tree = ast.parse(script.read_text())
        records += extract_module_facts(script.stem, script.name, tree).imports
    return records


def _unreached(facts: dict[str, ModuleFacts], roots: list[ImportRecord]) -> list[str]:
    """Modules no root's import records lead to.

    A module is reached when a root or a reached module imports it.  Loading
    it runs its packages' ``__init__``s, but an ``__init__``'s import is
    followed only for a name somebody reached asks the package for — a
    re-export nobody asks for keeps nothing alive — or when it binds a
    private name, which nobody can ask for: it is there for its effect
    (``from . import rules as _rules`` registers the lint rules).
    """
    reached: set[str] = set()

    def load(target: str, name: "str | None" = None) -> None:
        parent = target.rpartition(".")[0]
        if parent:
            load(parent)
        package = facts.get(f"{target}.__init__")
        if package is None:
            if target in facts and target not in reached:
                reached.add(target)
                follow(facts[target].imports)
            return
        if package.module not in reached:
            reached.add(package.module)
            follow(
                record for record in package.imports
                if all(bound.startswith("_") for _, bound in record.names)
            )
        if name is None:
            return
        if f"{target}.{name}" in facts or f"{target}.{name}.__init__" in facts:
            load(f"{target}.{name}")
            return
        for record in package.imports:
            for original, bound in record.names:
                if bound == name:
                    load(record.target, original)

    def follow(records) -> None:
        for record in records:
            if not record.names:  # plain ``import a.b``
                load(record.target)
            for original, _ in record.names:
                load(record.target, original)

    follow(roots)
    return sorted(set(facts) - reached)


def _passed_arguments(callee: str, parameters: "list[str]") -> set[str]:
    """The ``parameters`` of ``callee`` that some call in ``src/`` or
    ``perf/`` (their test directories aside) passes, by keyword or by
    position.  A ``**mapping`` or ``*sequence`` argument names nothing."""
    passed: set[str] = set()
    scripts = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perf").rglob("*.py")]
    for script in sorted(scripts):
        if "tests" in script.relative_to(ROOT).parts:
            continue
        for node in ast.walk(ast.parse(script.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            else:
                name = func.id if isinstance(func, ast.Name) else None
            if name != callee:
                continue
            positional = 0
            for argument in node.args:
                if isinstance(argument, ast.Starred):
                    break
                positional += 1
            passed.update(parameters[:positional])
            passed.update(k.arg for k in node.keywords if k.arg is not None)
    return passed


class TestCensus:
    """ROADMAP item 4(a): every module under ``src/repro`` is on the path of
    a command, a ledger workload or an example.  A module only its own test
    imports is a test helper and lives under ``tests/``.

    The same holds one level down, for the engine's public parameters: a
    parameter that only tests set is a test seam, and it belongs in
    ``tests/`` (faults are armed from ``tests/engine/faults.py`` through the
    strategy registry and the pool's construction site, not passed in).
    """

    @pytest.mark.parametrize(
        "callee",
        ["CampaignEngine", "ResilienceConfig", "units_from_groups", "WorkUnit"],
    )
    def test_every_engine_parameter_is_passed_by_product_code(self, callee):
        target = getattr(engine, callee)
        if dataclasses.is_dataclass(target):
            parameters = [field.name for field in dataclasses.fields(target)]
        else:
            signature = inspect.signature(target)
            parameters = [name for name in signature.parameters if name != "self"]
        unpassed = set(parameters) - _passed_arguments(callee, parameters)
        assert unpassed == set(), f"{callee} parameters only tests pass"

    def test_every_module_is_reached_from_something_a_user_runs(self, pctx):
        assert _unreached(pctx.facts, _census_roots()) == []

    def test_an_unreferenced_module_and_an_unrequested_reexport_are_named(
        self, tmp_path
    ):
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        (package / "core" / "orphan.py").write_text("ANSWER = 42\n")
        (package / "sdr" / "shelved.py").write_text("def shelved():\n    return 1\n")
        with (package / "sdr" / "__init__.py").open("a") as init:
            init.write("from .shelved import shelved\n")
        facts = ProjectContext.build(package, project_root=tmp_path).facts
        assert _unreached(facts, _census_roots()) == [
            "repro.core.orphan", "repro.sdr.shelved",
        ]


class TestPerformance:
    def test_full_build_and_rules_under_ten_seconds(self, shipped_lint):
        assert shipped_lint.seconds < 10.0
