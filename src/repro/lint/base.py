"""Lint rule machinery: file context, rule base classes, and the registry.

Every rule registers with :func:`register` in the one
:data:`RULE_REGISTRY` and comes in one of two shapes.  A
:class:`LintRule` is an :class:`ast.NodeVisitor` the driver runs once per
module it applies to (:meth:`LintRule.applies` — e.g. the determinism rule
only guards the solver paths); a
:class:`~repro.lint.project.ProjectRule` reasons over the whole parsed
tree at once.  Both see the same parse: each module is read and parsed
once per run.

Suppression: a source line ending in ``# lint: ignore[rule-name]`` (or the
blanket ``# lint: ignore``) silences findings reported on that line.  The
pragma is per-line and per-rule by design — blanket file-level opt-outs are
exactly the kind of drift this engine exists to prevent.  Two narrow
widenings keep that spirit while making the pragma writable in practice:

* a pragma on *any* line of one multi-line **simple** statement covers every
  line the statement spans (an expression split across parentheses is one
  logical decision; compound statements — ``def``/``if``/``with``/... — are
  not widened, so a pragma can never silence a whole suite);
* a pragma on a ``def``/``class`` line also covers findings anchored to that
  definition's decorator lines (the decorator belongs to the definition it
  adorns).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Iterable, Sequence, TypeVar

from .findings import EvidenceStep, Finding, Severity

if TYPE_CHECKING:
    from .project.context import ProjectContext

__all__ = [
    "FileContext",
    "Rule",
    "LintRule",
    "RULE_REGISTRY",
    "register",
    "rules_by_name",
]

_PRAGMA = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")


@dataclass
class FileContext:
    """Everything a rule needs to know about the file being linted.

    Attributes:
        path: absolute path of the file.
        rel: path relative to the project root (used in findings).
        module: dotted module name when the file sits under a package root
            (e.g. ``repro.core.herad``), else the stem.
        source: full text of the file.
        tree: the parsed module.
    """

    path: Path
    rel: str
    module: str
    source: str
    tree: ast.Module
    _suppressions: dict[int, "set[str] | None"] = field(default_factory=dict)

    _covering: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            names = match.group(1)
            if names is None:
                self._suppressions[lineno] = None  # blanket: every rule
            else:
                parsed = {n.strip() for n in names.split(",") if n.strip()}
                existing = self._suppressions.get(lineno)
                if existing is None and lineno in self._suppressions:
                    continue  # blanket pragma already wins
                self._suppressions[lineno] = (existing or set()) | parsed
        self._map_statement_spans()

    def _map_statement_spans(self) -> None:
        """Map finding lines to the other lines whose pragmas also cover them.

        A pragma on any line of a multi-line *simple* statement covers the
        whole statement, and a pragma on a ``def``/``class`` line covers
        findings anchored to its decorators.  Compound statements are never
        widened: a pragma inside a function body must not silence the body.
        """
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                for decorator in node.decorator_list:
                    span = self._covering.setdefault(decorator.lineno, ())
                    if node.lineno not in span:
                        self._covering[decorator.lineno] = (*span, node.lineno)
                continue
            if not isinstance(node, ast.stmt) or isinstance(
                node,
                (
                    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                    ast.AsyncWith, ast.Try, ast.Match,
                ),
            ):
                continue
            end = getattr(node, "end_lineno", None)
            if end is None or end <= node.lineno:
                continue
            lines = tuple(range(node.lineno, end + 1))
            for lineno in lines:
                span = self._covering.setdefault(lineno, ())
                merged = span + tuple(n for n in lines if n not in span and n != lineno)
                self._covering[lineno] = merged

    def is_suppressed(self, line: int, rule: "Rule | type[Rule]") -> bool:
        """True when a pragma covering ``line`` silences ``rule``."""
        for candidate in (line, *self._covering.get(line, ())):
            if candidate not in self._suppressions:
                continue
            names = self._suppressions[candidate]
            if names is None or rule.name in names or rule.id in names:
                return True
        return False

    @property
    def in_core(self) -> bool:
        """True for modules under ``repro.core``."""
        return self.module.startswith("repro.core")

    @property
    def in_engine(self) -> bool:
        """True for modules under ``repro.engine``."""
        return self.module.startswith("repro.engine")

    @property
    def in_solver_paths(self) -> bool:
        """True for the determinism-guarded solver packages."""
        return self.in_core or self.in_engine


class Rule:
    """What every rule shares: identity, metadata, and how a finding lands.

    A rule comes in one of two shapes — :class:`LintRule` visits one module
    at a time, :class:`~repro.lint.project.ProjectRule` reasons over the
    whole :class:`~repro.lint.project.ProjectContext` — and both report
    through :meth:`_emit`, so a per-line pragma silences either shape the
    same way.
    """

    #: Stable identifier, e.g. ``REP101``.
    id: ClassVar[str]
    #: Human slug, e.g. ``float-equality``.
    name: ClassVar[str]
    #: One-line description shown by ``repro lint --list-rules``.
    description: ClassVar[str]
    #: Default fix hint attached to findings.
    hint: ClassVar[str]
    #: Longer prose for ``--explain``: what the rule computes and why.
    explanation: ClassVar[str] = ""
    #: Default severity of the rule's findings.
    severity: ClassVar[Severity] = Severity.ERROR

    findings: list[Finding]

    @classmethod
    def check_project(cls, pctx: "ProjectContext") -> list[Finding]:
        """Every finding this rule reports on the parsed project."""
        raise NotImplementedError

    def _emit(
        self,
        ctx: FileContext,
        line: int,
        col: int,
        message: str,
        hint: "str | None",
        severity: "Severity | None",
        evidence: "Sequence[EvidenceStep]" = (),
    ) -> None:
        """Record one finding in ``ctx`` unless a pragma covers its line."""
        if ctx.is_suppressed(line, self):
            return
        self.findings.append(
            Finding(
                rule_id=self.id,
                rule_name=self.name,
                message=message,
                hint=hint if hint is not None else self.hint,
                path=ctx.rel,
                line=line,
                col=col,
                severity=severity if severity is not None else self.severity,
                evidence=tuple(evidence),
            )
        )


class LintRule(Rule, ast.NodeVisitor):
    """A per-file rule: an AST visitor run on each module it applies to.

    Subclasses set the class attributes, implement ``visit_*`` methods, and
    call :meth:`report` on violations.
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings = []

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        """Whether the rule runs on this file (default: everywhere)."""
        return True

    @classmethod
    def check_project(cls, pctx: "ProjectContext") -> list[Finding]:
        """Visit every module the rule applies to."""
        return [
            finding
            for ctx in pctx.files.values()
            if cls.applies(ctx)
            for finding in cls(ctx).run()
        ]

    def run(self) -> list[Finding]:
        """Visit the file and return the (unsuppressed) findings."""
        self.visit(self.ctx.tree)
        return self.findings

    def report(
        self,
        node: ast.AST,
        message: str,
        hint: "str | None" = None,
        severity: "Severity | None" = None,
    ) -> None:
        """Record one violation anchored at ``node``."""
        self._emit(
            self.ctx,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
            hint,
            severity,
        )


#: All registered rules of both shapes, keyed by slug, in registration order.
RULE_REGISTRY: dict[str, type[Rule]] = {}

_R = TypeVar("_R", bound=type[Rule])


def register(cls: _R) -> _R:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    for attr in ("id", "name", "description", "hint"):
        if not getattr(cls, attr, None):
            raise ValueError(f"rule {cls.__name__} is missing {attr!r}")
    if cls.name in RULE_REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    ids = {rule.id for rule in RULE_REGISTRY.values()}
    if cls.id in ids:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULE_REGISTRY[cls.name] = cls
    return cls


def rules_by_name(names: "Iterable[str] | None" = None) -> list[type[Rule]]:
    """Resolve rule selectors (slugs or ids) to rule classes.

    Args:
        names: rule slugs/ids; ``None`` selects every registered rule.

    Raises:
        KeyError: for an unknown selector, listing the available rules.
    """
    if names is None:
        return list(RULE_REGISTRY.values())
    by_id = {rule.id: rule for rule in RULE_REGISTRY.values()}
    selected: list[type[Rule]] = []
    for name in names:
        rule = RULE_REGISTRY.get(name) or by_id.get(name.upper())
        if rule is None:
            raise KeyError(
                f"unknown lint rule {name!r}; available: "
                f"{sorted(RULE_REGISTRY)}"
            )
        if rule not in selected:
            selected.append(rule)
    return selected
