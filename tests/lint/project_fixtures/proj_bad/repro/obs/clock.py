"""Seeded REP206 violation: a dead def whose name is only a string elsewhere."""


def monotonic_ns() -> int:  # SEED REP206: named only in lint/names.py's strings
    return 0
