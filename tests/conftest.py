"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.task import TaskChain
from repro.core.types import Resources

#: The benchmark contract ``perf/run.py`` and ``repro bench compare`` both read.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture
def make_ledger():
    """Factory of ledgers shaped like ``perf/out/ledger.json``.

    Synthesised from the real contract's workload and metric names, so the
    gate's tests cannot drift from ``BENCHMARK.json``; every cell holds a
    distinct positive value.
    """
    contract = json.loads(BENCHMARK_JSON.read_text())

    def make(quick: bool = True, affinity: int = 2) -> dict:
        results = {}
        for row, workload in enumerate(contract["workloads"]):
            results[workload["name"]] = {
                "workload": workload["name"],
                "attempted": 450,
                "failed": 0,
                "metrics": {
                    metric["name"]: {
                        "value": 1.0 + row + 0.1 * column,
                        "unit": metric["unit"],
                    }
                    for column, metric in enumerate(contract["end_to_end"])
                },
            }
        return {
            "provenance": {"nproc": affinity, "affinity": affinity},
            "quick": quick,
            "results": results,
        }

    return make


@pytest.fixture
def simple_chain() -> TaskChain:
    """Four tasks, one sequential, with distinct big/little weights."""
    return TaskChain.from_weights(
        weights_big=[4, 10, 3, 7],
        weights_little=[9, 21, 8, 15],
        replicable=[True, True, False, True],
    )


@pytest.fixture
def simple_profile(simple_chain: TaskChain) -> ChainProfile:
    return ChainProfile(simple_chain)


@pytest.fixture
def balanced_resources() -> Resources:
    return Resources(big=2, little=2)


def random_instance(rng: np.random.Generator, max_tasks: int = 8, max_cores: int = 4):
    """Draw a random small scheduling instance (chain, resources)."""
    n = int(rng.integers(1, max_tasks + 1))
    wb = rng.integers(1, 40, n).astype(float)
    wl = np.ceil(wb * rng.uniform(1.0, 5.0, n))
    rep = rng.random(n) < rng.random()
    chain = TaskChain.from_weights(wb, wl, rep)
    big = int(rng.integers(0, max_cores + 1))
    little = int(rng.integers(0, max_cores + 1))
    if big + little == 0:
        little = 1
    return chain, Resources(big, little)
