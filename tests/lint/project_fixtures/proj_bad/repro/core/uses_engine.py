"""Seeded layer violation: a core module depending upward on engine."""

from ..engine.cache import Cache  # SEED layer: core -> engine is upward


def _make_cache() -> Cache:
    return Cache()
