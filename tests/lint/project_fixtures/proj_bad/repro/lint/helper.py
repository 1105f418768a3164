"""Seeded REP204 violation: the lint layer must import stdlib only."""

from ..core.solvers import solve_chain  # SEED REP204: lint -> core


def _helper():
    return solve_chain
