"""The whole-project rule shape: :class:`ProjectRule`.

Project rules parallel the per-file :class:`~repro.lint.base.LintRule` but
see the whole tree at once through a :class:`ProjectContext`.  Both shapes
register in the one :data:`~repro.lint.base.RULE_REGISTRY` and report
through :meth:`~repro.lint.base.Rule._emit`.

Suppression composes from two layers: a per-line pragma
(``# lint: ignore[rule-name]``) on the violation line works exactly as for
a per-file rule — it is resolved through the same
:class:`~repro.lint.base.FileContext` — and a sanctioned (rule, module,
symbol) triple in the allowlist silences the site tree-wide, each entry
carrying a one-line justification.
"""

from __future__ import annotations

import ast
from typing import Sequence

from ..base import Rule
from ..findings import EvidenceStep, Finding, Severity
from .context import ProjectContext

__all__ = ["ProjectRule"]


class ProjectRule(Rule):
    """Base class for one whole-project rule.

    Subclasses set the class attributes and implement :meth:`check`,
    calling :meth:`report` for each violation.  ``explanation`` backs
    ``repro lint --explain REPxxx``.
    """

    def __init__(self, pctx: ProjectContext) -> None:
        self.pctx = pctx
        self.findings = []

    @classmethod
    def check_project(cls, pctx: ProjectContext) -> list[Finding]:
        """Run the rule once over the whole project."""
        return cls(pctx).run()

    def check(self) -> None:
        """Inspect the project and call :meth:`report` on violations."""
        raise NotImplementedError

    def run(self) -> list[Finding]:
        """Execute the rule and return its surviving findings."""
        self.check()
        return self.findings

    def report(
        self,
        module: str,
        line: "int | ast.AST",
        message: str,
        *,
        symbol: str,
        evidence: "Sequence[EvidenceStep] | None" = None,
        hint: "str | None" = None,
        severity: "Severity | None" = None,
        col: int = 0,
    ) -> None:
        """Record one violation unless a pragma or allowlist entry covers it.

        Args:
            module: dotted module the violation lives in.
            line: 1-based line number or the anchoring AST node.
            message: occurrence-specific description.
            symbol: the symbol the allowlist matches on (function qualname,
                binding name, or exported name).
            evidence: cross-file chain (definition -> call path -> site).
        """
        if isinstance(line, ast.AST):
            col = getattr(line, "col_offset", 0)
            line = getattr(line, "lineno", 1)
        ctx = self.pctx.files.get(module)
        if ctx is None:
            return
        if self.pctx.allowed(self.id, module, symbol) is not None:
            return
        self._emit(ctx, line, col, message, hint, severity, evidence or ())
