"""The simulator against its frozen answers (``tests/data/sim_digests.json``).

The fixture was written by the tree *before* rescheduling rounds started
reusing standing decisions (the ``herad_solo_oracle.json`` pattern): one
sha256 of ``repr((records, metrics, final_periods))`` per trace kind × seed
× config × platform.  ``resched_seconds`` is wall-clock and stays outside.

Regenerate (only when the simulator's *answers* are meant to change)::

    PYTHONPATH=src python -m tests.sim.test_frozen_digests > tests/data/sim_digests.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim import (
    SimConfig,
    bursty_trace,
    diurnal_trace,
    failure_storm_trace,
    simulate,
)

_FIXTURE = Path(__file__).resolve().parent.parent / "data" / "sim_digests.json"

_EVENTS = 250
_SEEDS = (0, 1, 2)
_PLATFORMS = {"k2": (4, 4), "k3": (3, 2, 3)}
_TRACES = {
    "bursty": lambda counts, seed: bursty_trace(_EVENTS, counts, seed=seed),
    "diurnal": lambda counts, seed: diurnal_trace(_EVENTS, counts, seed=seed),
    "storm": lambda counts, seed: failure_storm_trace(counts, seed=seed),
}
_CONFIGS = {
    "unbounded": SimConfig(),
    "deadline12": SimConfig(deadline=12),
    # An 8-task cold solve costs 8: at 3 every chain stays shed; at 8 one
    # chain per round solves and the rest fall through to reuse / shed.
    "deadline3-certify": SimConfig(deadline=3, certify=True),
    "deadline8-certify": SimConfig(deadline=8, certify=True),
    "fertac": SimConfig(strategy="fertac"),
}


def sim_digest(result) -> str:
    """sha256 of everything deterministic a run produced."""
    text = repr((result.records, result.metrics, result.final_periods))
    return hashlib.sha256(text.encode()).hexdigest()


def _cells():
    for kind in _TRACES:
        for platform in _PLATFORMS:
            for seed in _SEEDS:
                yield kind, platform, seed


def compute(kind: str, platform: str, seed: int) -> "dict[str, str]":
    trace = _TRACES[kind](_PLATFORMS[platform], seed)
    return {name: sim_digest(simulate(trace, cfg)) for name, cfg in _CONFIGS.items()}


@pytest.mark.parametrize("kind,platform,seed", list(_cells()))
def test_matches_frozen_digest(kind, platform, seed):
    frozen = json.loads(_FIXTURE.read_text())["digests"]
    assert compute(kind, platform, seed) == frozen[f"{kind}/{platform}/seed{seed}"]


def test_fixture_covers_the_matrix():
    frozen = json.loads(_FIXTURE.read_text())["digests"]
    assert set(frozen) == {f"{k}/{p}/seed{s}" for k, p, s in _cells()}
    assert all(set(row) == set(_CONFIGS) for row in frozen.values())


if __name__ == "__main__":  # pragma: no cover - fixture writer
    print(
        json.dumps(
            {
                "about": [
                    "sha256 of repr((records, metrics, final_periods)) per "
                    "trace kind / platform / seed / config; see "
                    "tests/sim/test_frozen_digests.py",
                    "Written at 2aeabed (the parent of PR 21), before standing "
                    "decisions and the split memo.",
                ],
                "events": _EVENTS,
                "platforms": {k: list(v) for k, v in _PLATFORMS.items()},
                "digests": {
                    f"{k}/{p}/seed{s}": compute(k, p, s) for k, p, s in _cells()
                },
            },
            indent=1,
        )
    )
