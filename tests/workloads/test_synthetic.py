"""Tests for repro.workloads.synthetic (the paper's chain distribution)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.errors import InvalidChainError
from repro.core.types import CoreType
from repro.sim.generators import bursty_trace, diurnal_trace, failure_storm_trace
from repro.workloads.synthetic import (
    DEFAULT_CONFIG,
    GeneratorConfig,
    chain_batch,
    ktype_chain_batch,
    random_chain,
)


class TestGeneratorConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.num_tasks == 20
        assert DEFAULT_CONFIG.weight_low == 1
        assert DEFAULT_CONFIG.weight_high == 100
        assert DEFAULT_CONFIG.slowdown_low == 1.0
        assert DEFAULT_CONFIG.slowdown_high == 5.0

    @pytest.mark.parametrize("sr,expected", [(0.2, 4), (0.5, 10), (0.8, 16)])
    def test_num_replicable(self, sr, expected):
        config = GeneratorConfig(stateless_ratio=sr)
        assert config.num_replicable == expected

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"weight_low": 0},
            {"weight_low": 10, "weight_high": 5},
            {"slowdown_low": 0.5},
            {"slowdown_low": 3.0, "slowdown_high": 2.0},
            {"stateless_ratio": 1.5},
            {"stateless_ratio": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidChainError):
            GeneratorConfig(**kwargs)


class TestRandomChain:
    def test_shape_and_ranges(self):
        rng = np.random.default_rng(0)
        config = GeneratorConfig(stateless_ratio=0.5)
        for _ in range(20):
            chain = random_chain(rng, config)
            assert chain.n == 20
            for task in chain:
                assert 1 <= task.weight_big <= 100
                assert task.weight_big == int(task.weight_big)
                # ceil(w * slowdown) with slowdown in [1, 5].
                assert task.weight_big <= task.weight_little <= 5 * task.weight_big
                assert task.weight_little == int(task.weight_little)

    def test_exact_replicable_count(self):
        rng = np.random.default_rng(1)
        for sr in (0.2, 0.5, 0.8):
            chain = random_chain(rng, GeneratorConfig(stateless_ratio=sr))
            assert len(chain.replicable_indices) == round(sr * 20)

    def test_little_weights_use_ceiling(self):
        rng = np.random.default_rng(2)
        chain = random_chain(rng)
        for task in chain:
            assert float(task.weight_little).is_integer()

    def test_replicable_positions_vary(self):
        rng = np.random.default_rng(3)
        config = GeneratorConfig(stateless_ratio=0.5)
        positions = {
            tuple(random_chain(rng, config).replicable_indices)
            for _ in range(10)
        }
        assert len(positions) > 1


class TestChainBatch:
    def test_deterministic_for_seed(self):
        a = [c.weights(CoreType.BIG) for c in chain_batch(5, seed=42)]
        b = [c.weights(CoreType.BIG) for c in chain_batch(5, seed=42)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [c.weights(CoreType.BIG) for c in chain_batch(5, seed=1)]
        b = [c.weights(CoreType.BIG) for c in chain_batch(5, seed=2)]
        assert a != b

    def test_count(self):
        assert len(list(chain_batch(7))) == 7
        assert list(chain_batch(0)) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            list(chain_batch(-1))

    def test_chains_within_batch_differ(self):
        chains = list(chain_batch(5, seed=0))
        weights = {tuple(c.weights(CoreType.BIG)) for c in chains}
        assert len(weights) == 5


def _chain_line(chain):
    return f"{chain.fingerprint}|{chain.name}|{chain.tasks!r}"


def _trace_lines(trace):
    for event in trace.events:
        yield f"{event.kind}|{event.time!r}|{event.name}|{event.core_type}|{event.cores}"
        if event.chain is not None:
            yield _chain_line(event.chain)


#: What the seeded generators draw, as the sha256 of one line per chain
#: (fingerprint, name, ``repr`` of its tasks) and per trace event.  Taken
#: before the generators handed tasks whole columns (``tolist``) instead of
#: one numpy scalar at a time: the RNG call sequence and every drawn value
#: are unchanged by that.
FROZEN_DRAWS = {
    "chain_batch.sr0.2": (
        lambda: map(_chain_line, chain_batch(30, GeneratorConfig(stateless_ratio=0.2), seed=7)),
        "a80972c0c6a44f4ca7a48a3202e1259851c009f134262fd381f66d28525051b4",
    ),
    "chain_batch.sr0.8.n7": (
        lambda: map(
            _chain_line,
            chain_batch(30, GeneratorConfig(num_tasks=7, stateless_ratio=0.8), seed=8),
        ),
        "6fdd71c6f5d966dfa627d3a82209972750d558c49552c04fec0e70d19d360cf0",
    ),
    "ktype_chain_batch.k2": (
        lambda: map(_chain_line, ktype_chain_batch(20, ktype=2, seed=9)),
        "a113cc58a1eb8bbed0bc802294f7b4f6bddc2633115a3ced84b2a81e796a3bd6",
    ),
    "ktype_chain_batch.k3": (
        lambda: map(_chain_line, ktype_chain_batch(20, ktype=3, seed=10)),
        "601b398553eb7c3d30b08782fb4525643da8bd53c7198a175f5c7ab019e2ab32",
    ),
    "bursty_trace.k2": (
        lambda: _trace_lines(bursty_trace(300, (4, 4), seed=3)),
        "6bc249a43a42ebda47c632a5940d4ad82f6054013255d8b49ce86d01df8ca6fd",
    ),
    "bursty_trace.k3": (
        lambda: _trace_lines(bursty_trace(200, (2, 2, 2), seed=5)),
        "0419989d82f41d648e3cab1a10d17e898a98dd4950c335e5380b08cdfc9080a7",
    ),
    "diurnal_trace.k2": (
        lambda: _trace_lines(diurnal_trace(200, (3, 3), seed=2)),
        "5b7250829384f3614fc919e9fde41bbcc219366d8d1c3af3d367c5c71714f74f",
    ),
    "failure_storm_trace.k3": (
        lambda: _trace_lines(failure_storm_trace((3, 3, 2), seed=4)),
        "f69996a97d12595a4a0592b4d02b187013ab2cbdedc34dd581b7f846d1777e93",
    ),
}


class TestFrozenDraws:
    @pytest.mark.parametrize("case", sorted(FROZEN_DRAWS))
    def test_seeded_draws_match_their_digest(self, case):
        make, digest = FROZEN_DRAWS[case]
        text = "\n".join(make())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_tasks_hold_python_scalars(self):
        """Task weights are ``float`` and flags ``bool``, never numpy
        scalars (whose ``repr`` differs across numpy versions)."""
        chains = [*chain_batch(3, seed=1), *ktype_chain_batch(3, ktype=3, seed=1)]
        for task in (task for chain in chains for task in chain.tasks):
            weights = (task.weight_big, task.weight_little, *task.extra_weights)
            assert {type(w) for w in weights} == {float}
            assert type(task.replicable) is bool
