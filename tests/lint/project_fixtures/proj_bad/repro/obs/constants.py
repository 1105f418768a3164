"""Seeded REP206 violations: an export and a public def nothing references."""

__all__ = ["LIVE_LIMIT", "DEAD_LIMIT"]

LIVE_LIMIT = 10
DEAD_LIMIT = 99


def dead_window() -> int:
    return LIVE_LIMIT
