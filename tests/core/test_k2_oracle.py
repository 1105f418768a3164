"""Bitwise k=2 equivalence against the pre-refactor oracle fixture.

``tests/data/k2_oracle.json`` captures, for 30 chains x 6 budgets x every
registry strategy, the exact pre-k-type-refactor outputs: the period as a
``float.hex()`` round-trip, the per-type core usage, and the rendered
schedule.  The k-type platform refactor promises that two-type behavior is
*bitwise* identical — not merely close — so this test replays the whole
fixture against the live implementation.

The chains are regenerated from the same seeds; the stored fingerprints
double-check that the workload generators (and the fingerprint algorithm
itself) did not drift either.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from tests import chain_shapes as g

from repro.core.registry import STRATEGIES
from repro.core.types import Resources
from repro.workloads.synthetic import GeneratorConfig, chain_batch

_FIXTURE = Path(__file__).resolve().parent.parent / "data" / "k2_oracle.json"


def _oracle_chains():
    chains = []
    for sr in (0.2, 0.5, 0.8):
        cfg = GeneratorConfig(num_tasks=20, stateless_ratio=sr)
        chains.extend(chain_batch(8, cfg, seed=int(sr * 10)))
    chains += [
        g.fully_replicable_chain(12),
        g.fully_sequential_chain(12),
        g.alternating_chain(15),
        g.heavy_tail_chain(10),
        g.inverted_speed_chain(14),
        g.uniform_chain(1),
    ]
    return chains


@pytest.fixture(scope="module")
def oracle():
    return json.loads(_FIXTURE.read_text())


@pytest.fixture(scope="module")
def chains():
    return _oracle_chains()


def test_fixture_covers_every_prerefactor_strategy(oracle):
    strategies = {row["strategy"] for row in oracle["rows"]}
    # ktype_ref joined the registry *with* the refactor, so it has no
    # pre-refactor oracle; everything older must be covered.
    assert strategies == set(STRATEGIES) - {"ktype_ref"}
    assert len(oracle["rows"]) == oracle["meta"]["chains"] * len(
        oracle["meta"]["budgets"]
    ) * len(strategies)


def test_chain_fingerprints_unchanged(oracle, chains):
    by_index = {}
    for row in oracle["rows"]:
        by_index.setdefault(row["chain"], row["fp"])
    assert len(by_index) == len(chains)
    for index, chain in enumerate(chains):
        assert chain.fingerprint == by_index[index], (
            f"chain {index}: fingerprint drifted — either the workload "
            "generators or the fingerprint algorithm changed at k=2"
        )


def test_every_strategy_bitwise_identical_at_k2(oracle, chains):
    mismatches = []
    for row in oracle["rows"]:
        chain = chains[row["chain"]]
        resources = Resources(*row["budget"])
        outcome = STRATEGIES[row["strategy"]].func(chain, resources)
        usage = outcome.solution.core_usage()
        got = {
            "period_hex": outcome.period.hex(),
            "usage": [usage.big, usage.little],
            "render": outcome.solution.render(),
        }
        want = {
            "period_hex": row["period_hex"],
            "usage": row["usage"],
            "render": row["render"],
        }
        if got != want:
            mismatches.append(
                (row["chain"], row["budget"], row["strategy"], want, got)
            )
    assert not mismatches, (
        f"{len(mismatches)} of {len(oracle['rows'])} oracle rows diverged "
        f"from the pre-refactor outputs; first: {mismatches[0]}"
    )
