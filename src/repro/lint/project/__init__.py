"""Whole-project analysis (rules REP201, REP205, REP206).

Where the per-file rules (REP1xx) see one module at a time, these rules
read the :class:`ProjectContext` every ``repro lint`` run builds from its
one parse of the tree — per-module facts, the project's class names, the
import records — and check the properties that span modules: no worker
module mutates shared globals, memo purity, and dead public symbols.
They register in the same :data:`~repro.lint.base.RULE_REGISTRY` as the
per-file rules and run in the same pass::

    from repro.lint import lint
    report = lint("src/repro", rule_names=["REP201", "REP205"])
"""

from .allowlist import ALLOWLIST, AllowEntry
from .base import ProjectRule
from .context import ProjectContext
from . import rules as _rules  # noqa: F401  (importing registers the rules)

__all__ = [
    "ALLOWLIST",
    "AllowEntry",
    "ProjectRule",
    "ProjectContext",
]
