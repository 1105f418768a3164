"""Structured chain shapes for the tests (beyond the paper's distribution).

The differential and property-based tests use these to probe strategy
behaviour on extreme shapes: fully-replicable chains (where the
homogeneous optimum is a single replicated stage), fully-sequential chains
(pure pipelining, the CCP regime), heavy-tailed weights (one dominant task),
and chains where little cores are *faster* than big ones (stress for the
generalized period bounds).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import InvalidChainError
from repro.core.task import Task, TaskChain

__all__ = [
    "fully_replicable_chain",
    "fully_sequential_chain",
    "alternating_chain",
    "heavy_tail_chain",
    "inverted_speed_chain",
    "uniform_chain",
]


def _build(
    weights_big: Sequence[float],
    weights_little: Sequence[float],
    replicable: Sequence[bool],
    name: str,
) -> TaskChain:
    return TaskChain(
        tuple(
            Task(f"tau_{i + 1}", float(wb), float(wl), bool(r))
            for i, (wb, wl, r) in enumerate(
                zip(weights_big, weights_little, replicable)
            )
        ),
        name=name,
    )


def uniform_chain(
    n: int, weight: float = 10.0, slowdown: float = 2.0, stateless_ratio: float = 1.0
) -> TaskChain:
    """A chain of identical tasks; the first ``round((1-SR)*n)`` are sequential."""
    if n < 1:
        raise InvalidChainError("n must be >= 1")
    num_seq = n - round(stateless_ratio * n)
    rep = [i >= num_seq for i in range(n)]
    return _build(
        [weight] * n, [weight * slowdown] * n, rep, name=f"uniform-{n}"
    )


def fully_replicable_chain(
    n: int, weight_big: float = 10.0, slowdown: float = 2.0
) -> TaskChain:
    """All tasks stateless: the homogeneous optimum is one replicated stage."""
    return uniform_chain(n, weight_big, slowdown, stateless_ratio=1.0)


def fully_sequential_chain(
    n: int, weight_big: float = 10.0, slowdown: float = 2.0
) -> TaskChain:
    """All tasks stateful: pure pipelined parallelism (the CCP regime)."""
    return uniform_chain(n, weight_big, slowdown, stateless_ratio=0.0)


def alternating_chain(n: int, slowdown: float = 3.0) -> TaskChain:
    """Alternating replicable/sequential tasks with ramping weights."""
    if n < 1:
        raise InvalidChainError("n must be >= 1")
    wb = [float(1 + (i % 7)) for i in range(n)]
    wl = [w * slowdown for w in wb]
    rep = [i % 2 == 0 for i in range(n)]
    return _build(wb, wl, rep, name=f"alternating-{n}")


def heavy_tail_chain(
    n: int, heavy_index: int | None = None, factor: float = 50.0
) -> TaskChain:
    """One replicable task dominates the chain (like DVB-S2's BCH decoder)."""
    if n < 1:
        raise InvalidChainError("n must be >= 1")
    idx = (n - 1) if heavy_index is None else heavy_index
    if not (0 <= idx < n):
        raise InvalidChainError(f"heavy_index {idx} out of range for n={n}")
    wb = [1.0] * n
    wb[idx] = factor
    wl = [w * 2.0 for w in wb]
    rep = [True] * n
    if n > 1:
        rep[0] = False  # keep one sequential task, like real SDR sources
    return _build(wb, wl, rep, name=f"heavy-tail-{n}")


def inverted_speed_chain(n: int, seed: int = 7) -> TaskChain:
    """Little cores are *faster* than big ones for every task.

    Violates the paper's footnote-1 assumption on purpose; used to test the
    generalized period bounds.
    """
    if n < 1:
        raise InvalidChainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    wl = rng.integers(1, 50, size=n).astype(float)
    wb = np.ceil(wl * rng.uniform(1.5, 4.0, size=n))
    rep = rng.random(n) < 0.5
    if not rep.any():
        rep[n // 2] = True
    return _build(wb, wl, rep.tolist(), name=f"inverted-{n}")
