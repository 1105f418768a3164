"""Project-specific static analysis for the scheduling library.

A small AST-based lint engine with rules guarding the invariants the
paper's correctness claims rest on: float comparison discipline on
periods/weights (Eqs. (1)-(2)), immutability of the scheduling value
objects, the core error hierarchy, engine determinism (the ``--jobs``
bitwise guarantee), numpy scalar containment, strict public typing,
stdout hygiene, and process-pool picklability (REP101-REP111, one module
at a time) — plus the cross-module rules that races, fork-safety,
layering and memo purity need (REP201-REP206, :mod:`repro.lint.project`).

One run parses each module of the package once and runs every selected
rule.  Run it with ``repro lint``, ``python -m repro.lint``, or
programmatically::

    from repro.lint import lint
    report = lint("src/repro")
    assert report.ok, report.findings

Suppress an intentional violation with a justified per-line pragma::

    if a == b:  # lint: ignore[float-equality] exact DP tie-break
"""

from . import rules as _rules  # noqa: F401  (registers REP101-REP111, then REP2xx)
from .base import RULE_REGISTRY, FileContext, LintRule, Rule, register, rules_by_name
from .engine import LintReport, lint
from .findings import EvidenceStep, Finding, Severity
from .project import ProjectContext, ProjectRule
from .reporters import render_json, render_sarif, render_text

__all__ = [
    "Finding",
    "EvidenceStep",
    "Severity",
    "FileContext",
    "Rule",
    "LintRule",
    "ProjectRule",
    "RULE_REGISTRY",
    "register",
    "rules_by_name",
    "LintReport",
    "lint",
    "render_text",
    "render_json",
    "render_sarif",
    "ProjectContext",
]
