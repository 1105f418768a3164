"""The lint driver: one parse of the package, every selected rule.

:func:`lint` builds one :class:`~repro.lint.project.ProjectContext` — each
module under the package root read and parsed once — and runs each
selected rule over it: a per-file rule on every module it applies to, a
project rule once over the whole context.  A module that does not parse
becomes a finding of the pseudo-rule ``REP000`` rather than crashing the
run (a broken file must fail the build, not the linter).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .base import rules_by_name
from .findings import Finding, Severity
from .project import AllowEntry, ProjectContext

__all__ = ["LintReport", "lint"]


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run.

    Attributes:
        findings: all findings, sorted by location then rule.
        files_checked: number of Python files read.
    """

    findings: tuple[Finding, ...]
    files_checked: int

    @property
    def errors(self) -> tuple[Finding, ...]:
        """The findings that fail the build."""
        return tuple(
            f for f in self.findings if f.severity is Severity.ERROR
        )

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was produced."""
        return not self.errors


def lint(
    package_root: "Path | str" = "src/repro",
    rule_names: "Iterable[str] | None" = None,
    project_root: "Path | str | None" = None,
    allowlist: "Sequence[AllowEntry] | None" = None,
) -> LintReport:
    """Lint one package tree with every selected rule.

    Args:
        package_root: directory of the linted package (default
            ``src/repro`` relative to the current directory).
        rule_names: rule slugs/ids to run (default: every registered rule).
        project_root: repository root; finding paths are rendered relative
            to it and REP206 scans its ``src``/``tests``/``examples`` for
            references (inferred from ``package_root`` when omitted).
        allowlist: sanctioned-site entries for the project rules; ``None``
            selects the shipped allowlist, pass ``()`` to disable (fixture
            corpora do).

    Raises:
        FileNotFoundError: when ``package_root`` is not a directory.
        KeyError: for an unknown rule selector.
    """
    rules = rules_by_name(None if rule_names is None else list(rule_names))
    pctx = ProjectContext.build(
        package_root, project_root=project_root, allowlist=allowlist
    )
    findings = list(pctx.syntax_errors)
    for rule_cls in rules:
        findings.extend(rule_cls.check_project(pctx))
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        findings=tuple(findings),
        files_checked=len(pctx.files) + len(pctx.syntax_errors),
    )
