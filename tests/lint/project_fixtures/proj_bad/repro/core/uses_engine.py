"""Seeded REP204 violation: a core module depending upward on engine."""

from ..engine.cache import Cache  # SEED REP204: core -> engine is upward


def _make_cache() -> Cache:
    return Cache()
