"""Whole-project semantic analysis (rules REP201-REP206).

Where the per-file rules (REP1xx) see one module at a time, these rules
read the :class:`ProjectContext` every ``repro lint`` run builds from its
one parse of the tree — symbol table, import graph, over-approximate call
graph — and check the cross-module properties races, fork-safety,
layering, and memo purity actually require.  They register in the same
:data:`~repro.lint.base.RULE_REGISTRY` as the per-file rules and run in
the same pass::

    from repro.lint import lint
    report = lint("src/repro", rule_names=["REP201", "REP204"])
"""

from .allowlist import ALLOWLIST, AllowEntry
from .base import ProjectRule
from .context import DispatchSite, ProjectContext, StrategyRoot
from .evidence import call_chain, definition_step, entry_of
from . import rules as _rules  # noqa: F401  (importing registers the rules)

__all__ = [
    "ALLOWLIST",
    "AllowEntry",
    "ProjectRule",
    "ProjectContext",
    "DispatchSite",
    "StrategyRoot",
    "call_chain",
    "definition_step",
    "entry_of",
]
