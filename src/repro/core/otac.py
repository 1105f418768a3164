"""OTAC baseline — optimal scheduling on *homogeneous* resources.

OTAC (Orhan et al., 2023) solves the partially-replicable task-chain problem
optimally when all cores are identical, by wrapping a greedy maximal packing
(the same ``ComputeStage`` refined procedure reused by FERTAC/2CATAC) in the
binary-search ``Schedule`` driver.  The paper evaluates two instantiations on
heterogeneous platforms as baselines:

* **OTAC (B)** — schedule using only the big cores;
* **OTAC (L)** — schedule using only the little cores.

Both ignore the other half of the machine, which is exactly the gap the
heterogeneous strategies (FERTAC, 2CATAC, HeRAD) close.
"""

from __future__ import annotations

from functools import partial

from .binary_search import ScheduleOutcome, schedule_by_binary_search
from .chain_stats import ChainProfile
from .errors import InvalidPlatformError
from .packing import first_fit_walk, materialise
from .solution import Solution
from .task import TaskChain
from .types import CoreIndex, CoreType, Resources

__all__ = ["otac_compute_solution", "otac", "otac_big", "otac_little"]


def otac_compute_solution(
    profile: ChainProfile,
    resources: Resources,
    period: float,
    core_type: CoreIndex,
) -> Solution:
    """Greedy single-type ``ComputeSolution``: OTAC's packing pass.

    Builds stages left to right on ``core_type`` cores only; any other cores
    in ``resources`` are ignored.
    """
    walk = first_fit_walk(profile, resources, period, (int(core_type),))
    return materialise(walk, resources)


def otac(
    chain: "TaskChain | ChainProfile",
    cores: int,
    core_type: CoreIndex,
    *,
    epsilon: float | None = None,
) -> ScheduleOutcome:
    """Schedule a chain with OTAC on ``cores`` homogeneous cores.

    Args:
        chain: the task chain (or a precomputed profile).
        cores: number of identical cores available.
        core_type: which weight column of the chain those cores use.
        epsilon: binary-search tolerance, defaulting to ``1 / cores``.

    Returns:
        The :class:`~repro.core.binary_search.ScheduleOutcome`.

    Raises:
        InvalidPlatformError: when ``cores <= 0``.
    """
    if cores <= 0:
        raise InvalidPlatformError(f"OTAC needs at least one core, got {cores}")
    if core_type == CoreType.BIG:
        resources = Resources(big=cores, little=0)
    elif core_type == CoreType.LITTLE:
        resources = Resources(big=0, little=cores)
    else:
        # k-type platform: a single-type budget at the requested index.
        index = int(core_type)
        resources = Resources.from_counts(
            cores if v == index else 0 for v in range(index + 1)
        )

    walk = partial(first_fit_walk, order=(int(core_type),))
    return schedule_by_binary_search(chain, resources, walk, epsilon=epsilon)


def otac_big(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    epsilon: float | None = None,
) -> ScheduleOutcome:
    """The paper's **OTAC (B)** baseline: use only the big cores of ``resources``."""
    return otac(chain, resources.big, CoreType.BIG, epsilon=epsilon)


def otac_little(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    epsilon: float | None = None,
) -> ScheduleOutcome:
    """The paper's **OTAC (L)** baseline: use only the little cores of ``resources``."""
    return otac(chain, resources.little, CoreType.LITTLE, epsilon=epsilon)
