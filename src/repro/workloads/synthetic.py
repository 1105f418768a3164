"""Synthetic task-chain generators — the paper's simulation workload.

Section VI-A-1: *"1000 task chains of 20 tasks were generated.  Task weights
were randomly set in the integer interval [1, 100] uniformly for big cores
with a slowdown in the interval [1, 5] for little cores (rounded using the
ceiling function).  The stateless ratio (SR) of each chain was set equal to
{0.2, 0.5, 0.8} for different scenarios."*

:func:`random_chain` reproduces exactly that distribution;
:func:`chain_batch` produces seeded campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from ..core.errors import InvalidChainError
from ..core.task import Task, TaskChain

__all__ = [
    "GeneratorConfig",
    "random_chain",
    "chain_batch",
    "random_ktype_chain",
    "ktype_chain_batch",
    "DEFAULT_CONFIG",
]


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Parameters of the random-chain distribution.

    Attributes:
        num_tasks: chain length ``n`` (paper: 20).
        weight_low: inclusive lower bound of the big-core integer weights.
        weight_high: inclusive upper bound of the big-core integer weights.
        slowdown_low: lower bound of the uniform little-core slowdown.
        slowdown_high: upper bound of the uniform little-core slowdown.
        stateless_ratio: fraction ``SR`` of replicable tasks; the generator
            places exactly ``round(SR * n)`` replicable tasks at uniformly
            random positions.
    """

    num_tasks: int = 20
    weight_low: int = 1
    weight_high: int = 100
    slowdown_low: float = 1.0
    slowdown_high: float = 5.0
    stateless_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise InvalidChainError("num_tasks must be >= 1")
        if not (1 <= self.weight_low <= self.weight_high):
            raise InvalidChainError(
                f"invalid weight interval [{self.weight_low}, {self.weight_high}]"
            )
        if not (1.0 <= self.slowdown_low <= self.slowdown_high):
            raise InvalidChainError(
                f"invalid slowdown interval "
                f"[{self.slowdown_low}, {self.slowdown_high}]"
            )
        if not (0.0 <= self.stateless_ratio <= 1.0):
            raise InvalidChainError(
                f"stateless_ratio must be in [0, 1], got {self.stateless_ratio}"
            )

    @property
    def num_replicable(self) -> int:
        """Number of replicable tasks placed in each generated chain."""
        return round(self.stateless_ratio * self.num_tasks)


#: The paper's exact simulation distribution (SR must be set per scenario).
DEFAULT_CONFIG = GeneratorConfig()


def random_chain(
    rng: np.random.Generator,
    config: GeneratorConfig = DEFAULT_CONFIG,
    name: str | None = None,
) -> TaskChain:
    """Draw one task chain from the paper's distribution.

    Args:
        rng: NumPy random generator (pass a seeded one for reproducibility).
        config: distribution parameters.
        name: optional chain label.

    Returns:
        A :class:`TaskChain` with integer big-core weights, little-core
        weights ``ceil(w_B * slowdown)``, and exactly
        ``round(SR * n)`` replicable tasks.
    """
    label = name or f"synthetic-n{config.num_tasks}-sr{config.stateless_ratio}"
    return random_ktype_chain(rng, config, 2, name=label)


def random_ktype_chain(
    rng: np.random.Generator,
    config: GeneratorConfig = DEFAULT_CONFIG,
    ktype: int = 2,
    name: str | None = None,
) -> TaskChain:
    """Draw one task chain with ``ktype`` per-type weights.

    The natural k-type extension of the paper's distribution: integer
    weights for the most performant class, then one independent slowdown
    column per remaining class drawn from the same
    ``[slowdown_low, slowdown_high]`` interval and rounded with the ceiling
    function.  The random stream is consumed in one order (performant
    weights, slowdown columns in class order, replicable positions), so at
    ``ktype == 2`` this is :func:`random_chain`.
    """
    if ktype < 2:
        raise InvalidChainError(f"ktype must be >= 2, got {ktype}")
    n = config.num_tasks
    weights_big = rng.integers(
        config.weight_low, config.weight_high, size=n, endpoint=True
    ).astype(np.float64)
    # One ``tolist`` per drawn column hands every task plain Python floats
    # and bools: the values ``float(col[i])`` / ``bool(rep[i])`` would give,
    # without a numpy scalar per task.
    columns = [weights_big.tolist()]
    for _ in range(ktype - 1):
        slowdowns = rng.uniform(
            config.slowdown_low, config.slowdown_high, size=n
        )
        columns.append(np.ceil(weights_big * slowdowns).tolist())

    replicable = np.zeros(n, dtype=bool)
    chosen = rng.choice(n, size=config.num_replicable, replace=False)
    replicable[chosen] = True

    big, little, *extra = columns
    extras = list(zip(*extra)) if extra else [()] * n
    tasks = tuple(
        map(Task, _task_names(n), big, little, replicable.tolist(), extras)
    )
    return TaskChain(
        tasks,
        name=name or f"synthetic-k{ktype}-n{n}-sr{config.stateless_ratio}",
    )


@lru_cache(maxsize=None)
def _task_names(n: int) -> "tuple[str, ...]":
    return tuple(f"tau_{i + 1}" for i in range(n))


def ktype_chain_batch(
    count: int,
    config: GeneratorConfig = DEFAULT_CONFIG,
    ktype: int = 2,
    seed: int = 0,
) -> Iterator[TaskChain]:
    """Yield ``count`` k-type chains from a deterministic seeded stream.

    At ``ktype == 2`` each chain's weights match :func:`chain_batch` with the
    same ``(count, config, seed)`` (the chain names differ, so fingerprints —
    which hash content only — agree while labels advertise the class count).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    for index in range(count):
        yield random_ktype_chain(
            rng, config, ktype, name=f"chain-k{ktype}-{seed}-{index}"
        )


def chain_batch(
    count: int,
    config: GeneratorConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> Iterator[TaskChain]:
    """Yield ``count`` chains from a deterministic seeded stream.

    Args:
        count: number of chains (paper campaigns use 1000).
        config: distribution parameters.
        seed: base seed; chains are drawn from one generator sequentially,
            so ``(seed, config, count)`` fully determines the batch.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    for index in range(count):
        yield random_chain(rng, config, name=f"chain-{seed}-{index}")
