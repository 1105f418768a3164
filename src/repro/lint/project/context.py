"""The shared :class:`ProjectContext` handed to every project-wide rule.

Built once per ``repro lint --project`` run: parse every module under the
package root, distill each into :class:`~repro.lint.project.model.ModuleFacts`,
then derive the three graphs the REP201-REP206 rules reason over:

* the **symbol table** — every module-level binding, function, and class,
  indexed by module, bare name, and project-unique function id;
* the **import graph** — per-module import records with relative imports
  resolved, plus the per-name import map (``bound name -> (module, orig)``)
  used to resolve cross-module references;
* the **call graph** — an over-approximate edge set: direct calls resolve
  through the import map, ``self.x()`` resolves within the class, attribute
  calls fall back to *every* project method of that name, and a bare
  reference to a known function counts as a potential (higher-order) call.

Over-approximation is deliberate: reachability-based rules (REP201, REP205)
must not miss a worker-side write because the call went through a variable.
The cost — the occasional sanctioned site — is paid once, with a justified
allowlist entry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..base import FileContext
from .allowlist import ALLOWLIST, AllowEntry
from .model import (
    Binding,
    ClassFacts,
    FunctionFacts,
    ModuleFacts,
    collect_reference_names,
    extract_module_facts,
)

__all__ = ["ProjectContext", "DispatchSite", "StrategyRoot"]

#: Method names that dispatch a callable onto a worker pool.
_DISPATCH_METHODS = frozenset(
    {"map", "submit", "apply_async", "imap", "imap_unordered", "starmap"}
)

#: Attribute-call names too generic to over-approximate into call edges
#: unless they resolve exactly (would connect every dict.get to a method).
_NO_FALLBACK_ATTRS = frozenset(
    {
        "get", "items", "keys", "values", "copy", "index", "count", "join",
        "split", "strip", "format", "read", "write", "close", "append",
        "extend", "add", "update", "pop", "sort", "setdefault",
    }
)


@dataclass(frozen=True, slots=True)
class DispatchSite:
    """One ``pool.map(fn, ...)``-style worker dispatch call."""

    module: str
    lineno: int
    method: str
    target_fids: tuple[str, ...]
    arg_names: tuple[str, ...]  # remaining argument base names (REP203)


@dataclass(frozen=True, slots=True)
class StrategyRoot:
    """One function registered as a strategy via ``StrategyInfo(func=...)``."""

    module: str
    lineno: int
    keyword: str  # "func" | "batch_func"
    fid: str


@dataclass
class ProjectContext:
    """Whole-project facts and graphs shared by all project rules."""

    package_root: Path
    project_root: Path
    files: dict[str, FileContext]
    facts: dict[str, ModuleFacts]
    functions: dict[str, FunctionFacts]
    classes_by_name: dict[str, tuple[ClassFacts, ...]]
    call_edges: dict[str, tuple[tuple[str, int], ...]]
    dispatch_sites: tuple[DispatchSite, ...]
    strategy_roots: tuple[StrategyRoot, ...]
    reference_names: frozenset[str]
    frozen_class_names: frozenset[str]
    allowlist: tuple[AllowEntry, ...]
    _import_maps: dict[str, dict[str, tuple[str, "str | None"]]] = field(
        default_factory=dict
    )
    _functions_by_bare: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _methods_by_bare: dict[str, tuple[str, ...]] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        package_root: "Path | str",
        project_root: "Path | str | None" = None,
        allowlist: "Sequence[AllowEntry] | None" = None,
        reference_dirs: "Sequence[str] | None" = None,
    ) -> "ProjectContext":
        """Parse the tree under ``package_root`` and derive all graphs.

        Args:
            package_root: directory of the analyzed package (e.g.
                ``src/repro``); every ``.py`` beneath it is analyzed.
            project_root: repository root; reference scanning for REP206
                covers ``src``, ``tests`` and ``examples`` under it
                (defaults to two levels above ``package_root`` when that
                looks like ``<root>/src/repro``, else its parent).
            allowlist: sanctioned-site entries (default: the shipped
                :data:`~repro.lint.project.allowlist.ALLOWLIST`).
            reference_dirs: override the reference-scan subdirectories.
        """
        from ..engine import _module_name, iter_python_files

        package_root = Path(package_root).resolve()
        if project_root is None:
            if package_root.parent.name == "src":
                root = package_root.parent.parent
            else:
                root = package_root.parent
        else:
            root = Path(project_root).resolve()

        files: dict[str, FileContext] = {}
        facts: dict[str, ModuleFacts] = {}
        for path in iter_python_files([package_root]):
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue  # surfaced by the per-file pass as REP000
            module = _module_name(path)
            rel = _rel(path, root)
            files[module] = FileContext(
                path=path, rel=rel, module=module, source=source, tree=tree
            )
            facts[module] = extract_module_facts(module, rel, tree)

        functions: dict[str, FunctionFacts] = {}
        classes_by_name: dict[str, list[ClassFacts]] = {}
        frozen: set[str] = set()
        for mod_facts in facts.values():
            for func in mod_facts.functions:
                functions[func.fid] = func
            for klass in mod_facts.classes:
                classes_by_name.setdefault(klass.name, []).append(klass)
                if klass.is_frozen_dataclass:
                    frozen.add(klass.name)

        reference_names = _scan_references(
            root, reference_dirs or ("src", "tests", "examples")
        )

        ctx = cls(
            package_root=package_root,
            project_root=root,
            files=files,
            facts=facts,
            functions=functions,
            classes_by_name={
                name: tuple(group) for name, group in classes_by_name.items()
            },
            call_edges={},
            dispatch_sites=(),
            strategy_roots=(),
            reference_names=frozenset(reference_names),
            frozen_class_names=frozenset(frozen),
            allowlist=tuple(ALLOWLIST if allowlist is None else allowlist),
        )
        ctx._index_names()
        ctx._build_import_maps()
        ctx._build_call_graph()
        ctx._find_dispatch_sites()
        ctx._find_strategy_roots()
        return ctx

    def _index_names(self) -> None:
        by_func: dict[str, list[str]] = {}
        by_method: dict[str, list[str]] = {}
        for fid, func in self.functions.items():
            target = by_method if func.class_name else by_func
            target.setdefault(func.name, []).append(fid)
        self._functions_by_bare = {k: tuple(v) for k, v in by_func.items()}
        self._methods_by_bare = {k: tuple(v) for k, v in by_method.items()}

    def _build_import_maps(self) -> None:
        for module, mod_facts in self.facts.items():
            mapping: dict[str, tuple[str, "str | None"]] = {}
            for record in mod_facts.imports:
                if record.bound_as is not None:
                    mapping[record.bound_as] = (record.target, None)
                for name, bound_as in record.names:
                    mapping[bound_as] = (record.target, name)
            self._import_maps[module] = mapping

    # -- name resolution -----------------------------------------------------

    def resolve_callable(self, module: str, dotted: str) -> tuple[str, ...]:
        """Project function ids a call to ``dotted`` from ``module`` may hit.

        Exact resolution (own module, then the import map) is preferred;
        attribute calls that stay unresolved fall back to every project
        method with the same terminal name, except for the deliberately
        excluded generic names in ``_NO_FALLBACK_ATTRS``.
        """
        if dotted.startswith("self."):
            return ()  # resolved by the caller, which knows the class
        parts = dotted.split(".")
        head, leaf = parts[0], parts[-1]
        mod_facts = self.facts.get(module)
        if mod_facts is None:
            return ()

        if len(parts) == 1:
            fid = f"{module}:{head}"
            if fid in self.functions:
                return (fid,)
            for klass in mod_facts.classes:
                if klass.name == head:
                    return self._ctor_fids(klass)
            resolved = self._resolve_import(module, head)
            if resolved is not None:
                return resolved
            return ()

        # dotted: try "<imported module>.<leaf>" exactly first
        imported = self._import_maps.get(module, {}).get(head)
        if imported is not None:
            target_module, orig = imported
            base = (
                target_module
                if orig is None
                else f"{target_module}.{orig}"
            )
            middle = parts[1:-1]
            candidate_module = ".".join([base, *middle])
            fid = f"{candidate_module}:{leaf}"
            if fid in self.functions:
                return (fid,)
            target_facts = self.facts.get(candidate_module)
            if target_facts is not None:
                for klass in target_facts.classes:
                    if klass.name == leaf:
                        return self._ctor_fids(klass)
                return ()  # resolved module, no such symbol: stdlib-ish
        if leaf in _NO_FALLBACK_ATTRS:
            return ()
        return self._methods_by_bare.get(leaf, ())

    def _resolve_import(self, module: str, name: str) -> "tuple[str, ...] | None":
        imported = self._import_maps.get(module, {}).get(name)
        if imported is None:
            return None
        target_module, orig = imported
        if orig is None:
            return ()  # a module object, not a callable
        fid = f"{target_module}:{orig}"
        if fid in self.functions:
            return (fid,)
        target_facts = self.facts.get(target_module)
        if target_facts is not None:
            for klass in target_facts.classes:
                if klass.name == orig:
                    return self._ctor_fids(klass)
        # re-export hop: ``from repro.obs import activate`` where obs/__init__
        # itself imported activate from repro.obs.context
        hop = self._import_maps.get(target_module, {}).get(orig)
        if hop is not None:
            hop_module, hop_orig = hop
            fid = f"{hop_module}:{hop_orig or orig}"
            if fid in self.functions:
                return (fid,)
        return ()

    def _ctor_fids(self, klass: ClassFacts) -> tuple[str, ...]:
        fids = []
        for method in klass.methods:
            if method.name in ("__init__", "__post_init__", "__new__"):
                fids.append(method.fid)
        return tuple(fids)

    def resolve_value_class(self, func: FunctionFacts, name: str) -> "str | None":
        """Best-effort class of the local/module value bound to ``name``."""
        for local, cname, _ in reversed(func.local_instances):
            if local == name:
                return cname
        mod_facts = self.facts.get(func.module)
        if mod_facts is not None:
            binding = mod_facts.binding(name)
            if binding is not None and binding.value_class is not None:
                return binding.value_class
        for param, tokens in func.param_annotations:
            if param == name:
                for token in tokens:
                    if token in self.classes_by_name:
                        return token
        return None

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
            if cname in self.classes_by_name:
                return True  # non-frozen project class instance
            return cname in ("local", "Lock", "RLock", "Event", "Queue")
        return False

    # -- graphs --------------------------------------------------------------

    def _build_call_graph(self) -> None:
        edges: dict[str, list[tuple[str, int]]] = {}
        for fid, func in self.functions.items():
            out: dict[str, int] = {}
            for call in func.calls:
                if call.name.startswith("self.") and func.class_name:
                    leaf = call.name.split(".", 1)[1]
                    if "." not in leaf:
                        callee = f"{func.module}:{func.class_name}.{leaf}"
                        if callee in self.functions:
                            out.setdefault(callee, call.lineno)
                    continue
                if call.is_reference and "." in call.name:
                    continue
                for callee in self.resolve_callable(func.module, call.name):
                    if callee != fid:
                        out.setdefault(callee, call.lineno)
            edges[fid] = list(out.items())
        self.call_edges = {
            fid: tuple(pairs) for fid, pairs in edges.items()
        }

    def reachable_from(
        self, entries: Iterable[str]
    ) -> dict[str, tuple["str | None", int]]:
        """BFS over the call graph; maps fid -> (parent fid, call line).

        Entry points map to ``(None, 0)``.  The parent pointers reconstruct
        one concrete call path for evidence chains.
        """
        visited: dict[str, tuple["str | None", int]] = {}
        queue: list[str] = []
        for entry in entries:
            if entry in self.functions and entry not in visited:
                visited[entry] = (None, 0)
                queue.append(entry)
        while queue:
            fid = queue.pop(0)
            for callee, lineno in self.call_edges.get(fid, ()):
                if callee not in visited:
                    visited[callee] = (fid, lineno)
                    queue.append(callee)
        return visited

    def package_import_graph(self) -> dict[str, set[tuple[str, str, int]]]:
        """Second-level package graph: pkg -> {(target_pkg, module, lineno)}.

        Only intra-project (``repro.*``) imports appear; the top package
        itself is the pseudo-package ``""``.
        """
        top = self._top_package()
        graph: dict[str, set[tuple[str, str, int]]] = {}
        for module, mod_facts in self.facts.items():
            src_pkg = _package_of(module, top)
            if src_pkg is None:
                continue
            for record in mod_facts.imports:
                tgt_pkg = _package_of(record.target, top)
                if tgt_pkg is None:
                    continue
                graph.setdefault(src_pkg, set()).add(
                    (tgt_pkg, module, record.lineno)
                )
        return graph

    def _top_package(self) -> str:
        for module in self.facts:
            return module.split(".", 1)[0]
        return "repro"

    # -- entry / root discovery ----------------------------------------------

    def _find_dispatch_sites(self) -> None:
        sites: list[DispatchSite] = []
        for module, ctx in self.files.items():
            for node in ast.walk(ctx.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DISPATCH_METHODS
                    and node.args
                ):
                    continue
                first = node.args[0]
                target = _expr_name(first)
                if target is None:
                    continue
                fids = self.resolve_callable(module, target)
                arg_names = tuple(
                    name
                    for arg in node.args[1:]
                    for name in [_expr_name(arg)]
                    if name is not None
                )
                if fids:
                    sites.append(
                        DispatchSite(
                            module=module,
                            lineno=node.lineno,
                            method=node.func.attr,
                            target_fids=fids,
                            arg_names=arg_names,
                        )
                    )
        self.dispatch_sites = tuple(sites)

    def _find_strategy_roots(self) -> None:
        roots: list[StrategyRoot] = []
        for module, ctx in self.files.items():
            for node in ast.walk(ctx.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _expr_name(node.func) is not None
                    and _expr_name(node.func).rsplit(".", 1)[-1] == "StrategyInfo"
                ):
                    continue
                for keyword in node.keywords:
                    if keyword.arg not in ("func", "batch_func"):
                        continue
                    target = _expr_name(keyword.value)
                    if target is None:
                        continue
                    for fid in self.resolve_callable(module, target):
                        roots.append(
                            StrategyRoot(
                                module=module,
                                lineno=node.lineno,
                                keyword=keyword.arg,
                                fid=fid,
                            )
                        )
        self.strategy_roots = tuple(roots)

    def worker_entry_points(self) -> dict[str, str]:
        """fid -> why it is a worker entry point (REP201 seed set).

        Worker entries are functions handed to pool dispatch calls plus
        every registered strategy function (strategies execute inside
        worker processes/threads once dispatched).
        """
        entries: dict[str, str] = {}
        for site in self.dispatch_sites:
            where = self.facts[site.module].rel if site.module in self.facts else site.module
            for fid in site.target_fids:
                entries.setdefault(
                    fid,
                    f"dispatched to a worker pool via .{site.method}() at "
                    f"{where}:{site.lineno}",
                )
        for root in self.strategy_roots:
            entries.setdefault(
                root.fid,
                f"registered strategy ({root.keyword}=) runs inside workers",
            )
        return entries

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


def _package_of(module: str, top: str) -> "str | None":
    """Second-level package of a project module name, else None."""
    if module != top and not module.startswith(top + "."):
        return None
    rest = module[len(top) :].lstrip(".")
    if not rest or rest in ("__init__", "__main__"):
        return rest or ""
    return rest.split(".", 1)[0]


def _expr_name(node: ast.AST) -> "str | None":
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scan_references(
    root: Path, subdirs: Sequence[str]
) -> set[str]:
    from ..engine import iter_python_files

    trees: list[ast.Module] = []
    bases = [root / sub for sub in subdirs if (root / sub).is_dir()]
    if not bases:
        bases = [root]  # fixture corpora: scan the tree itself
    for base in bases:
        for path in iter_python_files([base]):
            try:
                trees.append(
                    ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                )
            except SyntaxError:
                continue
    return collect_reference_names(trees)
