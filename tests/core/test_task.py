"""Tests for repro.core.task (Task, TaskChain)."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import InvalidChainError
from repro.core.task import Task, TaskChain
from repro.core.types import CoreType


class TestTask:
    def test_weight_per_type(self):
        t = Task("t", 3.0, 7.0, True)
        assert t.weight(CoreType.BIG) == 3.0
        assert t.weight(CoreType.LITTLE) == 7.0

    def test_sequential_is_not_replicable(self):
        assert Task("t", 1, 1, False).sequential
        assert not Task("t", 1, 1, True).sequential

    @pytest.mark.parametrize("wb,wl", [(0, 1), (1, 0), (-2, 1), (1, -2), (float("nan"), 1), (1, float("inf"))])
    def test_invalid_weights_rejected(self, wb, wl):
        with pytest.raises(InvalidChainError):
            Task("t", wb, wl, True)


#: Every weight the check rejects: zero of either sign, negatives, both
#: infinities and NaN, as floats and as ints.
_REJECTED = (0.0, -0.0, 0, -1.0, -2, -math.inf, math.inf, math.nan)


class TestRejectedWeightMessages:
    """A rejected weight raises the one labelled message, naming the first
    offending core type and the value as given (a valid task skips the
    labelled walk, so this pins what the walk still says)."""

    @staticmethod
    def _message(label, value):
        return (
            f"task 't': weight on {label} cores must be a finite positive "
            f"number, got {value!r}"
        )

    @pytest.mark.parametrize("value", _REJECTED, ids=repr)
    @pytest.mark.parametrize(
        "label, kwargs",
        [
            ("big", lambda w: {"weight_big": w, "weight_little": 1.0}),
            ("little", lambda w: {"weight_big": 1.0, "weight_little": w}),
            (
                "type3",
                lambda w: {
                    "weight_big": 1.0, "weight_little": 1.0, "extra_weights": (2.0, w),
                },
            ),
        ],
    )
    def test_message_names_type_and_value(self, label, kwargs, value):
        with pytest.raises(InvalidChainError) as caught:
            Task("t", replicable=True, **kwargs(value))
        assert str(caught.value) == self._message(label, value)

    def test_first_offending_type_is_named(self):
        with pytest.raises(InvalidChainError) as caught:
            Task("t", -2.0, math.nan, True, extra_weights=(0.0,))
        assert str(caught.value) == self._message("big", -2.0)

    def test_valid_weights_of_every_numeric_kind_pass(self):
        task = Task("t", 1, 2.5, True, extra_weights=(3, 1e-300, 1e300))
        assert task.ktype == 5


class TestTaskChain:
    def test_from_weights_roundtrip(self, simple_chain):
        assert simple_chain.n == 4
        assert simple_chain.weights(CoreType.BIG) == [4, 10, 3, 7]
        assert simple_chain.weights(CoreType.LITTLE) == [9, 21, 8, 15]
        assert [t.replicable for t in simple_chain] == [True, True, False, True]

    def test_empty_chain_rejected(self):
        with pytest.raises(InvalidChainError):
            TaskChain([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidChainError):
            TaskChain.from_weights([1, 2], [1], [True, True])

    def test_homogeneous_builder(self):
        chain = TaskChain.homogeneous([2, 4], [True, False], slowdown=3.0)
        assert chain.weights(CoreType.LITTLE) == [6.0, 12.0]

    def test_homogeneous_rejects_bad_slowdown(self):
        with pytest.raises(InvalidChainError):
            TaskChain.homogeneous([1], [True], slowdown=0)

    def test_total_weight(self, simple_chain):
        assert simple_chain.total_weight(CoreType.BIG) == 24
        assert simple_chain.total_weight(CoreType.LITTLE) == 53

    def test_indices(self, simple_chain):
        assert simple_chain.replicable_indices == [0, 1, 3]
        assert simple_chain.sequential_indices == [2]

    def test_stateless_ratio(self, simple_chain):
        assert simple_chain.stateless_ratio == pytest.approx(0.75)

    def test_fully_replicable(self):
        chain = TaskChain.from_weights([1, 2], [2, 4], [True, True])
        assert chain.is_fully_replicable()

    def test_subchain(self, simple_chain):
        sub = simple_chain.subchain(1, 2)
        assert sub.n == 2
        assert sub.weights(CoreType.BIG) == [10, 3]

    def test_subchain_bounds_checked(self, simple_chain):
        with pytest.raises(InvalidChainError):
            simple_chain.subchain(2, 5)
        with pytest.raises(InvalidChainError):
            simple_chain.subchain(-1, 2)

    def test_container_protocol(self, simple_chain):
        assert len(simple_chain) == 4
        assert simple_chain[0].name == "tau_1"
        assert [t.name for t in simple_chain][-1] == "tau_4"

    def test_describe_mentions_every_task(self, simple_chain):
        text = simple_chain.describe()
        for task in simple_chain:
            assert task.name in text

    def test_chain_is_immutable(self, simple_chain):
        with pytest.raises(AttributeError):
            simple_chain.tasks = ()  # type: ignore[misc]
