"""Per-module facts the project-wide rules read, extracted in one AST pass.

The project rules (REP201, REP205, REP206) never re-walk raw trees: each
file is distilled once into a :class:`ModuleFacts` — imports, module-level
bindings with a mutability classification, function summaries (reads and
writes of non-local names), class summaries, and ``__all__`` exports.  No
rule follows a call: each one checks the facts of the modules it names.  A
construct that cannot be resolved statically (a dynamically-built name) is
recorded as unknown, and the rules prefer a false negative over a false
positive.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable

from ..base import dotted_name, leaf_name

__all__ = [
    "ImportRecord",
    "Binding",
    "NameSite",
    "WriteSite",
    "FunctionFacts",
    "ClassFacts",
    "ModuleFacts",
    "extract_module_facts",
    "collect_reference_names",
]

#: An identifier inside a string annotation (``"Foo | None"``, ``"a.B"``).
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

#: Constructors producing module-level *mutable* containers.
_MUTABLE_CTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
        "array",
        "zeros",
        "empty",
        "ones",
        "full",
    }
)

#: Constructors producing immutable values.
_IMMUTABLE_CTORS = frozenset(
    {"tuple", "frozenset", "int", "float", "str", "bytes", "bool", "complex"}
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "move_to_end",
        "appendleft",
        "popleft",
    }
)


def _base_name(node: ast.AST) -> "str | None":
    """The root Name of an Attribute/Subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass(frozen=True, slots=True)
class ImportRecord:
    """One import statement edge out of a module, at any depth (module body,
    function body, ``if TYPE_CHECKING:``).

    ``target`` is the imported module's dotted name with relative imports
    resolved against the importing module; ``names`` holds the
    ``from ... import`` bindings as ``(name, bound_as)`` pairs (empty for a
    plain ``import``, which binds ``bound_as`` to the module itself).
    """

    target: str
    names: tuple[tuple[str, str], ...]
    bound_as: "str | None"
    lineno: int


@dataclass(frozen=True, slots=True)
class Binding:
    """One module-level name binding with its mutability classification.

    ``mutability`` is ``"mutable"`` (container literal / mutable ctor /
    instance of a non-frozen project class), ``"immutable"`` (constants,
    frozen-dataclass instances, defs, imports), or ``"unknown"``.
    ``value_class`` records ``Cls`` when the binding is ``name = Cls(...)``.
    """

    name: str
    lineno: int
    mutability: str
    value_class: "str | None" = None
    kind: str = "value"  # "value" | "function" | "class" | "import"


@dataclass(frozen=True, slots=True)
class NameSite:
    """A name and the line it appears on: a function's load of a non-local
    identifier, or one ``__all__`` entry."""

    name: str
    lineno: int


@dataclass(frozen=True, slots=True)
class WriteSite:
    """A write whose target resolves to a non-local base name.

    ``kind`` is ``"global"`` (declared ``global`` and assigned),
    ``"subscript"`` (``NAME[...] = ...``), ``"attribute"``
    (``NAME.attr = ...``), or ``"mutcall"`` (``NAME.append(...)`` etc.).
    """

    name: str
    lineno: int
    kind: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class FunctionFacts:
    """Summary of one function or method."""

    module: str
    qualname: str
    name: str
    lineno: int
    reads: tuple[NameSite, ...]
    writes: tuple[WriteSite, ...]
    decorators: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ClassFacts:
    """Summary of one class: where it is and how it is decorated."""

    module: str
    name: str
    lineno: int
    decorators: tuple[str, ...]

    @property
    def is_frozen_dataclass(self) -> bool:
        """True for ``@dataclass(frozen=True)`` classes (value objects)."""
        return any("frozen=True" in d for d in self.decorators)


@dataclass(frozen=True, slots=True)
class ModuleFacts:
    """Everything the project rules know about one module."""

    module: str
    rel: str
    imports: tuple[ImportRecord, ...]
    bindings: tuple[Binding, ...]
    functions: tuple[FunctionFacts, ...]
    classes: tuple[ClassFacts, ...]
    exports: tuple[NameSite, ...]
    binding_map: dict[str, Binding]

    def binding(self, name: str) -> "Binding | None":
        return self.binding_map.get(name)


class _FunctionScanner(ast.NodeVisitor):
    """Collects read/write facts from one function body."""

    def __init__(self, func: ast.AST) -> None:
        self.reads: list[NameSite] = []
        self.writes: list[WriteSite] = []
        self.global_decls: set[str] = set()
        self.local_names: set[str] = set()
        self._collect_locals(func)

    def _collect_locals(self, func: ast.AST) -> None:
        args = func.args  # type: ignore[attr-defined]
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            self.local_names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self.local_names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func:
                    self.local_names.add(node.name)
        self.local_names -= self.global_decls

    # -- fact collection -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None and "." in dotted:
            base = dotted.split(".", 1)[0]
            if (
                node.func.attr in _MUTATING_METHODS  # type: ignore[union-attr]
                and base not in self.local_names
                and base != "self"
            ):
                self.writes.append(
                    WriteSite(
                        name=base,
                        lineno=node.lineno,
                        kind="mutcall",
                        detail=f"{dotted}()",
                    )
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if node.id not in self.local_names:
                self.reads.append(NameSite(name=node.id, lineno=node.lineno))
        elif isinstance(node.ctx, ast.Store) and node.id in self.global_decls:
            self.writes.append(
                WriteSite(name=node.id, lineno=node.lineno, kind="global")
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = _base_name(node)
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and base is not None
            and base not in self.local_names
            and base != "self"
        ):
            self.writes.append(
                WriteSite(
                    name=base,
                    lineno=node.lineno,
                    kind="attribute",
                    detail=dotted_name(node) or node.attr,
                )
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        base = _base_name(node.value)
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and base is not None
            and base not in self.local_names
            and base != "self"
        ):
            self.writes.append(
                WriteSite(name=base, lineno=node.lineno, kind="subscript")
            )
        self.generic_visit(node)


def _classify_value(value: "ast.expr | None") -> "tuple[str, str | None]":
    """``(mutability, value_class)`` of a module-level assigned value."""
    if value is None:
        return "unknown", None
    if isinstance(
        value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return "mutable", None
    if isinstance(value, (ast.Constant, ast.Tuple, ast.JoinedStr)):
        return "immutable", None
    if isinstance(value, ast.Call):
        name = leaf_name(value.func)
        if name in _MUTABLE_CTORS:
            return "mutable", None
        if name in _IMMUTABLE_CTORS:
            return "immutable", None
        if name is not None and name.lstrip("_")[:1].isupper():
            # instance of a class; frozen-ness resolved later by the context
            return "instance", name
    return "unknown", None


def _scan_function(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    module: str,
    class_name: "str | None",
) -> FunctionFacts:
    scanner = _FunctionScanner(node)
    for stmt in node.body:
        scanner.visit(stmt)
    return FunctionFacts(
        module=module,
        qualname=f"{class_name}.{node.name}" if class_name else node.name,
        name=node.name,
        lineno=node.lineno,
        reads=tuple(scanner.reads),
        writes=tuple(scanner.writes),
        decorators=tuple(ast.unparse(d) for d in node.decorator_list),
    )


def _resolve_relative(module: str, level: int, target: "str | None") -> str:
    """Resolve a relative import against the importing module's name."""
    parts = module.split(".")[:-1]  # drop the module's own leaf
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = [*parts, *target.split(".")]
    return ".".join(parts)


def _import_records(
    module: str, node: "ast.Import | ast.ImportFrom"
) -> list[ImportRecord]:
    """The import-graph edges of one import statement of ``module``."""
    if isinstance(node, ast.Import):
        return [
            ImportRecord(
                target=alias.name,
                names=(),
                bound_as=alias.asname or alias.name.split(".")[0],
                lineno=node.lineno,
            )
            for alias in node.names
        ]
    target = (
        _resolve_relative(module, node.level, node.module)
        if node.level
        else (node.module or "")
    )
    return [
        ImportRecord(
            target=target,
            names=tuple(
                (alias.name, alias.asname or alias.name) for alias in node.names
            ),
            bound_as=None,
            lineno=node.lineno,
        )
    ]


def extract_module_facts(
    module: str, rel: str, tree: ast.Module
) -> ModuleFacts:
    """Distill one parsed module into its :class:`ModuleFacts`."""
    imports: list[ImportRecord] = []
    bindings: list[Binding] = []
    functions: list[FunctionFacts] = []
    classes: list[ClassFacts] = []
    exports: list[NameSite] = []

    def record_binding(name: str, lineno: int, kind: str) -> None:
        bindings.append(Binding(name, lineno, "immutable", kind=kind))

    # Import records cover the whole module: an import deferred into a
    # function or an ``if TYPE_CHECKING:`` block is still an edge of the
    # import graph.  Module-body imports come last, so a name the module
    # body binds keeps resolving to the module body's import.
    statements = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    statements.sort(key=lambda node: node in tree.body)
    for node in statements:
        imports.extend(_import_records(module, node))

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                record_binding(name, node.lineno, "import")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                record_binding(alias.asname or alias.name, node.lineno, "import")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_scan_function(node, module, None))
            record_binding(node.name, node.lineno, "function")
        elif isinstance(node, ast.ClassDef):
            classes.append(
                ClassFacts(
                    module=module,
                    name=node.name,
                    lineno=node.lineno,
                    decorators=tuple(ast.unparse(d) for d in node.decorator_list),
                )
            )
            functions.extend(
                _scan_function(sub, module, node.name)
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            record_binding(node.name, node.lineno, "class")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            for target_node in targets:
                if not isinstance(target_node, ast.Name):
                    continue
                if target_node.id == "__all__" and isinstance(
                    value, (ast.List, ast.Tuple)
                ):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            exports.append(
                                NameSite(
                                    name=element.value, lineno=element.lineno
                                )
                            )
                    continue
                mutability, value_class = _classify_value(value)
                bindings.append(
                    Binding(target_node.id, node.lineno, mutability, value_class)
                )

    return ModuleFacts(
        module=module,
        rel=rel,
        imports=tuple(imports),
        bindings=tuple(bindings),
        functions=tuple(functions),
        classes=tuple(classes),
        exports=tuple(exports),
        binding_map={binding.name: binding for binding in bindings},
    )


def _annotations(tree: ast.Module) -> Iterable[ast.expr]:
    """Every annotation in ``tree``: arguments, returns and ``AnnAssign``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            if node.annotation is not None:
                yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.Module) -> Iterable[str]:
    """The identifiers inside each string annotation of ``tree``
    (``x: "Foo | None"``, ``-> list["Foo"]``)."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _IDENTIFIER.findall(node.value)


def collect_reference_names(trees: Iterable[ast.Module]) -> set[str]:
    """Identifiers referenced anywhere in the given trees (REP206 input).

    A name counts as referenced when it appears as a Name load, an
    attribute, an imported name, a segment of an imported module path, or
    a name inside a string annotation.  Any other string — a docstring, a
    message, a table of names — references nothing.  Definitions (Name
    stores, ``def``/``class`` statements) and ``__all__`` entries do NOT
    count — an export mentioned only by its own ``__all__`` is dead.
    """
    referenced: set[str] = set()
    for tree in trees:
        referenced.update(_string_annotation_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Load, ast.Del)
            ):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    referenced.add(alias.name)
                if node.module:
                    referenced.update(node.module.split("."))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    referenced.update(alias.name.split("."))
    return referenced
