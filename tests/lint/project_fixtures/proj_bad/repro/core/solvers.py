"""Seeded REP201/REP205 violations: solver code on module-level state."""

from ..obs.constants import LIVE_LIMIT

#: Module-level mutable state shared by every worker (the seeded race).
_COUNTS: dict[str, int] = {}

#: Ambient tuning table a pure solver must not read.
_TUNING: dict[str, float] = {"alpha": 0.5}


def solve_chain(profile: str) -> tuple[str, float]:
    scale = _TUNING["alpha"]  # SEED REP205: ambient mutable read
    _COUNTS[profile] = LIVE_LIMIT  # SEED REP201: write in a worker module
    return (profile, scale)


def solve_chain_batch(profiles: list[str]) -> list[tuple[str, float]]:
    return [solve_chain(profile) for profile in profiles]
