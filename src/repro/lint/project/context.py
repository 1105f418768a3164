"""The shared :class:`ProjectContext` every rule of a lint run reads.

Built once per ``repro lint`` run: parse every module under the package
root once (a module that does not parse becomes a ``REP000`` finding),
hand each parsed module's :class:`~repro.lint.base.FileContext` to the
per-file rules, and distill it into
:class:`~repro.lint.project.model.ModuleFacts` for the project rules.  On
top of the facts the context keeps the project's class names (and which
of them are frozen), each module's import map (``bound name ->
(module, orig)``, so a module-level binding can be followed across one
import), and the names referenced anywhere under ``src``/``tests``/
``examples`` (REP206).  There is no call graph: a rule that needs to know
where code runs names the modules (``WORKER_MODULES``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..base import FileContext
from ..findings import Finding
from .allowlist import ALLOWLIST, AllowEntry
from .model import (
    Binding,
    ModuleFacts,
    collect_reference_names,
    extract_module_facts,
)

__all__ = ["ProjectContext"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "build", "dist", "node_modules"}
)


@dataclass
class ProjectContext:
    """Whole-project facts shared by all rules of one run."""

    files: dict[str, FileContext]
    syntax_errors: tuple[Finding, ...]
    facts: dict[str, ModuleFacts]
    class_names: frozenset[str]
    reference_names: frozenset[str]
    frozen_class_names: frozenset[str]
    allowlist: tuple[AllowEntry, ...]
    _import_maps: dict[str, dict[str, tuple[str, "str | None"]]] = field(
        default_factory=dict
    )

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        package_root: "Path | str",
        project_root: "Path | str | None" = None,
        allowlist: "Sequence[AllowEntry] | None" = None,
    ) -> "ProjectContext":
        """Parse the tree under ``package_root`` and extract its facts.

        Args:
            package_root: directory of the analyzed package (e.g.
                ``src/repro``); every ``.py`` beneath it is analyzed.
            project_root: repository root; reference scanning for REP206
                covers ``src``, ``tests`` and ``examples`` under it
                (defaults to two levels above ``package_root`` when that
                looks like ``<root>/src/repro``, else its parent).
            allowlist: sanctioned-site entries (default: the shipped
                :data:`~repro.lint.project.allowlist.ALLOWLIST`).

        Raises:
            FileNotFoundError: when ``package_root`` is not a directory.
        """
        package_root = Path(package_root).resolve()
        if not package_root.is_dir():
            raise FileNotFoundError(f"no such package directory: {package_root}")
        if project_root is None:
            if package_root.parent.name == "src":
                root = package_root.parent.parent
            else:
                root = package_root.parent
        else:
            root = Path(project_root).resolve()

        files: dict[str, FileContext] = {}
        facts: dict[str, ModuleFacts] = {}
        syntax_errors: list[Finding] = []
        trees: dict[Path, "ast.Module | None"] = {}
        for path in _python_files(package_root):
            source = path.read_text(encoding="utf-8")
            rel = _rel(path, root)
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                trees[path] = None
                syntax_errors.append(
                    Finding(
                        rule_id="REP000",
                        rule_name="syntax-error",
                        message=f"file does not parse: {exc.msg}",
                        hint="fix the syntax error",
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                    )
                )
                continue
            trees[path] = tree
            parts = path.relative_to(package_root).with_suffix("").parts
            module = ".".join((package_root.name, *parts))
            files[module] = FileContext(
                path=path, rel=rel, module=module, source=source, tree=tree
            )
            facts[module] = extract_module_facts(module, rel, tree)

        classes = [klass for mod_facts in facts.values() for klass in mod_facts.classes]

        reference_names = _scan_references(
            root, ("src", "tests", "examples"), trees
        )

        ctx = cls(
            files=files,
            syntax_errors=tuple(syntax_errors),
            facts=facts,
            class_names=frozenset(klass.name for klass in classes),
            reference_names=frozenset(reference_names),
            frozen_class_names=frozenset(
                klass.name for klass in classes if klass.is_frozen_dataclass
            ),
            allowlist=tuple(ALLOWLIST if allowlist is None else allowlist),
        )
        ctx._build_import_maps()
        return ctx

    def _build_import_maps(self) -> None:
        for module, mod_facts in self.facts.items():
            mapping: dict[str, tuple[str, "str | None"]] = {}
            for record in mod_facts.imports:
                if record.bound_as is not None:
                    mapping[record.bound_as] = (record.target, None)
                for name, bound_as in record.names:
                    mapping[bound_as] = (record.target, name)
            self._import_maps[module] = mapping

    def resolve_module_binding(
        self, module: str, name: str
    ) -> "tuple[str, Binding] | None":
        """The module-level binding ``name`` refers to, following imports."""
        mod_facts = self.facts.get(module)
        if mod_facts is None:
            return None
        binding = mod_facts.binding(name)
        if binding is not None and binding.kind != "import":
            return (module, binding)
        imported = self._import_maps.get(module, {}).get(name)
        if imported is not None:
            target_module, orig = imported
            target_facts = self.facts.get(target_module)
            if target_facts is not None and orig is not None:
                hop = target_facts.binding(orig)
                if hop is not None and hop.kind != "import":
                    return (target_module, hop)
        return None

    def binding_is_mutable(self, binding: Binding) -> bool:
        """True when a module-level binding holds shared mutable state."""
        if binding.mutability == "mutable":
            return True
        if binding.mutability == "instance":
            cname = binding.value_class or ""
            if cname in self.frozen_class_names:
                return False
            if cname in self.class_names:
                return True  # non-frozen project class instance
            return cname in ("local", "Lock", "RLock", "Event", "Queue")
        return False

    # -- allowlist -----------------------------------------------------------

    def allowed(self, rule_id: str, module: str, symbol: str) -> "AllowEntry | None":
        """The allowlist entry sanctioning ``symbol`` for ``rule_id``, if any."""
        for entry in self.allowlist:
            if (
                entry.rule_id == rule_id
                and entry.module == module
                and entry.symbol == symbol
            ):
                return entry
        return None


def _rel(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def _python_files(directory: Path) -> list[Path]:
    """The ``.py`` files under ``directory``, resolved and sorted."""
    return sorted(
        path.resolve()
        for path in directory.rglob("*.py")
        if not _SKIP_DIRS.intersection(path.relative_to(directory).parts)
    )


def _scan_references(
    root: Path,
    subdirs: Sequence[str],
    parsed: "dict[Path, ast.Module | None]",
) -> set[str]:
    """Every name mentioned under ``root``'s ``subdirs``; a file in
    ``parsed`` (the package, already parsed or found unparseable) is not
    parsed again."""
    trees: list[ast.Module] = []
    bases = [root / sub for sub in subdirs if (root / sub).is_dir()]
    if not bases:
        bases = [root]  # fixture corpora: scan the tree itself
    for base in bases:
        for path in _python_files(base):
            if path in parsed:
                tree = parsed[path]
            else:
                try:
                    tree = ast.parse(
                        path.read_text(encoding="utf-8"), filename=str(path)
                    )
                except SyntaxError:
                    continue
            if tree is not None:
                trees.append(tree)
    return collect_reference_names(trees)
