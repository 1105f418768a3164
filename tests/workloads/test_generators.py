"""Tests for the structured chain shapes in ``tests/chain_shapes.py``."""

from __future__ import annotations

import pytest
from tests.chain_shapes import (
    alternating_chain,
    fully_replicable_chain,
    fully_sequential_chain,
    heavy_tail_chain,
    inverted_speed_chain,
    uniform_chain,
)

from repro.core.errors import InvalidChainError
from repro.core.types import CoreType


def test_uniform_chain_stateless_split():
    chain = uniform_chain(10, stateless_ratio=0.6)
    assert len(chain.replicable_indices) == 6
    # Sequential tasks come first by construction.
    assert chain.sequential_indices == [0, 1, 2, 3]


def test_fully_replicable():
    chain = fully_replicable_chain(5)
    assert chain.is_fully_replicable()


def test_fully_sequential():
    chain = fully_sequential_chain(5)
    assert chain.replicable_indices == []


def test_alternating_pattern():
    chain = alternating_chain(6)
    assert chain.replicable_indices == [0, 2, 4]


def test_heavy_tail_dominant_task():
    chain = heavy_tail_chain(6, factor=50.0)
    weights = chain.weights(CoreType.BIG)
    assert max(weights) == 50.0
    assert weights.index(50.0) == 5
    assert not chain[0].replicable  # one sequential anchor kept


def test_heavy_tail_custom_index():
    chain = heavy_tail_chain(6, heavy_index=2)
    assert chain.weights(CoreType.BIG)[2] == 50.0


def test_heavy_tail_bad_index():
    with pytest.raises(InvalidChainError):
        heavy_tail_chain(4, heavy_index=9)


def test_inverted_speeds():
    chain = inverted_speed_chain(8)
    for task in chain:
        assert task.weight_little < task.weight_big
    assert any(t.replicable for t in chain)


@pytest.mark.parametrize(
    "factory",
    [
        uniform_chain,
        fully_replicable_chain,
        fully_sequential_chain,
        alternating_chain,
        heavy_tail_chain,
        inverted_speed_chain,
    ],
)
def test_zero_length_rejected(factory):
    with pytest.raises(InvalidChainError):
        factory(0)
