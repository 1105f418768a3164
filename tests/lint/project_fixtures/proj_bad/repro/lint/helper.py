"""Seeded layer violation: the lint layer must import stdlib only."""

from ..core.solvers import solve_chain  # SEED layer: lint -> core


def _helper():
    return solve_chain
