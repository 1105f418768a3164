"""Sanctioned sites for the project-wide rules.

Every entry names one (rule, module, symbol) triple and carries a one-line
justification.  The allowlist is the *only* blanket escape hatch the
project tier offers — everything else must be fixed at the source or
suppressed with a per-line pragma right next to the offending code.  Keep
it short: an entry without a crisp justification is a bug report.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AllowEntry", "ALLOWLIST"]


@dataclass(frozen=True, slots=True)
class AllowEntry:
    """One sanctioned (rule, module, symbol) site."""

    rule_id: str
    module: str
    symbol: str
    justification: str


#: The shipped tree's sanctioned sites.  Each line is a deliberate,
#: reviewed exception — not an accumulating junk drawer.
ALLOWLIST: tuple[AllowEntry, ...] = (
    AllowEntry(
        rule_id="REP201",
        module="repro.obs.context",
        symbol="_AMBIENT",
        justification=(
            "the ambient obs context slot: the library runs one thread per "
            "process, and each worker process writes only its own copy, "
            "which activate() restores on exit"
        ),
    ),
    AllowEntry(
        rule_id="REP205",
        module="repro.core.registry",
        symbol="STRATEGIES",
        justification=(
            "the strategy registry's own lookup table: it chooses which "
            "solver runs and feeds no value into a result; tests "
            "monkeypatch.setitem it, so it stays a dict"
        ),
    ),
)
