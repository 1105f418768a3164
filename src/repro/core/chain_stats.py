"""Precomputed chain statistics used by every scheduling strategy.

The paper notes (Section IV) that efficient implementations precompute the
sum of weights of any interval with prefix sums, and the replicability of any
interval.  :class:`ChainProfile` bundles those precomputations:

* ``interval_weight(s, e, v)`` — the single-core weight ``w([tau_s, tau_e], 1, v)``
  in O(1) via prefix sums;
* ``is_replicable(s, e)`` — whether the interval contains a sequential task,
  in O(1) via a "next sequential task" index table (this improves on the
  paper's O(n^2) table while computing the same predicate);
* interval stage weights ``w(s, e, r, v)`` implementing Eq. (1).

All indices are 0-based and intervals are inclusive, matching
:mod:`repro.core.task`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from .errors import InvalidChainError, InvalidParameterError
from .task import TaskChain
from .types import INFINITY, CoreIndex, core_types

__all__ = ["ChainProfile"]


class ChainProfile:
    """Immutable precomputation bundle for one :class:`TaskChain`.

    Attributes:
        chain: the profiled chain.
        n: number of tasks.
        prefix: ``prefix[v][i]`` is the sum of the first ``i`` weights on core
            type ``v`` (so interval sums are two lookups).
        next_sequential: ``next_sequential[s]`` is the smallest index
            ``j >= s`` whose task is sequential, or ``n`` if none exists.

    Both are tuples of python numbers, built once: the greedy strategies'
    inner loop indexes and bisects them directly, and HeRAD copies them into
    its batch planes.  Each prefix row is ``itertools.accumulate`` over the
    task weights, the same sequential adds as ``np.cumsum``, so its bits are
    those of the numpy formulation.
    """

    __slots__ = (
        "chain",
        "n",
        "prefix",
        "next_sequential",
        "_max_weight",
        "_max_seq_weight",
        "_total",
    )

    def __init__(self, chain: TaskChain) -> None:
        self.chain = chain
        n = self.n = chain.n
        tasks = chain.tasks
        rows = [list(map(float, chain.weights(v))) for v in range(chain.ktype)]
        self.prefix = tuple((0.0, *accumulate(row)) for row in rows)

        # next_sequential[s]: first index >= s holding a sequential task.
        nxt = [n] * (n + 1)
        for i in range(n - 1, -1, -1):
            nxt[i] = nxt[i + 1] if tasks[i].replicable else i
        self.next_sequential = tuple(nxt)

        self._max_weight = tuple(map(max, rows))
        seq = [i for i in range(n) if nxt[i] == i]
        self._max_seq_weight = tuple(
            max([row[i] for i in seq]) if seq else 0.0 for row in rows
        )
        self._total = tuple(p[-1] for p in self.prefix)

    # -- basic accessors ----------------------------------------------------

    @property
    def ktype(self) -> int:
        """Number of core types the profiled chain carries weights for."""
        return len(self.prefix)

    def types(self) -> tuple[CoreIndex, ...]:
        """Iteration order over the chain's core types (see :func:`core_types`)."""
        return core_types(self.ktype)

    def weights(self, core_type: CoreIndex) -> list[float]:
        """Per-task weights on ``core_type``, in chain order."""
        return list(map(float, self.chain.weights(core_type)))

    def weight_of(self, index: int, core_type: CoreIndex) -> float:
        """Weight of a single task on ``core_type``."""
        return float(self.chain.tasks[index].weight(core_type))

    def total_weight(self, core_type: CoreIndex) -> float:
        """Sum of all weights on ``core_type``."""
        return self._total[int(core_type)]

    @property
    def fingerprint(self) -> str:
        """The profiled chain's stable content hash (see
        :attr:`repro.core.task.TaskChain.fingerprint`)."""
        return self.chain.fingerprint

    def max_weight(self, core_type: CoreIndex) -> float:
        """Largest single-task weight on ``core_type`` (``w_max``)."""
        return self._max_weight[int(core_type)]

    def max_sequential_weight(self, core_type: CoreIndex) -> float:
        """Largest sequential-task weight on ``core_type`` (0 if none)."""
        return self._max_seq_weight[int(core_type)]

    # -- interval queries -----------------------------------------------------

    def _check_interval(self, start: int, end: int) -> None:
        if not (0 <= start <= end < self.n):
            raise InvalidChainError(
                f"invalid interval [{start}, {end}] for a chain of {self.n} tasks"
            )

    def interval_weight(self, start: int, end: int, core_type: CoreIndex) -> float:
        """Single-core weight of the interval, ``w([tau_s, tau_e], 1, v)``."""
        self._check_interval(start, end)
        sums = self.prefix[core_type]
        return sums[end + 1] - sums[start]

    def is_replicable(self, start: int, end: int) -> bool:
        """Paper's ``IsRep``: the interval contains no sequential task."""
        self._check_interval(start, end)
        return self.next_sequential[start] > end

    def final_replicable_task(self, start: int, end: int) -> int:
        """Paper's ``FinalRepTask``: largest ``i >= end`` with ``[start, i]``
        replicable.

        Requires ``[start, end]`` to be replicable (as in Algo. 2 where it is
        guarded by ``IsRep``).
        """
        self._check_interval(start, end)
        nxt = self.next_sequential[start]
        if nxt <= end:
            raise InvalidChainError(
                f"interval [{start}, {end}] is not replicable; FinalRepTask "
                "is undefined"
            )
        return min(nxt - 1, self.n - 1)

    def stage_weight(
        self, start: int, end: int, cores: int, core_type: CoreIndex
    ) -> float:
        """Stage weight ``w(s, r, v)`` of Eq. (1).

        Returns the interval sum for stages containing a sequential task, the
        interval sum divided by ``cores`` for replicable stages, and
        ``INFINITY`` when ``cores < 1``.
        """
        if cores < 1:
            return INFINITY
        self._check_interval(start, end)
        sums = self.prefix[core_type]
        w = sums[end + 1] - sums[start]
        if self.next_sequential[start] > end:
            return w / cores
        return w

    def required_cores(
        self, start: int, end: int, core_type: CoreIndex, period: float
    ) -> int:
        """Paper's ``RequiredCores``: ``ceil(w([tau_s, tau_e], 1, v) / P)``.

        Note the formula intentionally follows the paper even for intervals
        containing sequential tasks (callers detect the infeasibility through
        stage-weight validation).
        """
        if period <= 0 or not math.isfinite(period):
            raise InvalidParameterError(
                f"target period must be positive and finite: {period}"
            )
        self._check_interval(start, end)
        sums = self.prefix[core_type]
        return max(1, math.ceil((sums[end + 1] - sums[start]) / period))

    def max_packing(
        self, start: int, cores: int, core_type: CoreIndex, period: float
    ) -> int:
        """Paper's ``MaxPacking``: the largest end index ``e >= start`` such
        that ``w([tau_start, tau_e], cores, v) <= period`` — and at least
        ``start`` even when no packing fits (forced single-task stage).

        Implemented in O(log n) with a binary search on the prefix sums:
        stage weight is monotone non-decreasing in the end index because the
        interval sum grows and the replicable divisor can only be lost (a
        replicable prefix divided by ``cores`` never exceeds the same
        interval's sequential weight).
        """
        self._check_interval(start, start)
        if cores < 1:
            # Weight is infinite for 0 cores: nothing fits, forced stage.
            return start
        sums = self.prefix[core_type]
        base = sums[start]
        nxt = self.next_sequential[start]
        last = self.n - 1

        best = start
        # Replicable region: end in [start, nxt-1]; weight = sum / cores.
        hi_rep = min(nxt - 1, last)
        if hi_rep >= start:
            limit = base + period * cores
            # Find the last e with sums[e+1] <= limit within the region.
            e = min(bisect_right(sums, limit) - 2, hi_rep)
            if e >= start:
                best = max(best, e)
        # Sequential region: end in [nxt, n-1]; weight = sum (no division).
        if nxt <= last:
            limit = base + period
            e = min(bisect_right(sums, limit) - 2, last)
            if e >= nxt:
                best = max(best, e)
        return best


def profile_of(chain: "TaskChain | ChainProfile") -> ChainProfile:
    """Return a :class:`ChainProfile`, profiling ``chain`` if necessary."""
    if isinstance(chain, ChainProfile):
        return chain
    if not isinstance(chain, TaskChain):
        raise InvalidChainError(
            f"expected a TaskChain or ChainProfile, got {type(chain).__name__}"
        )
    return ChainProfile(chain)


__all__.append("profile_of")
