"""HeRAD — Heterogeneous Resource Allocation using Dynamic programming.

The one production implementation of the paper's optimal strategy (Section
V, Algos. 7-11).  It computes, for every prefix of ``j`` tasks and every
core budget ``(b, l)``, the minimum achievable period ``P*(j, b, l)`` of
Eq. (4):

    P*(j, b, l) = min over stage starts i and core counts u of
                  max(P*(i-1, b-u, l), w([tau_i, tau_j], u, B))   (big stage)
                  max(P*(i-1, b, l-u), w([tau_i, tau_j], u, L))   (little stage)

with the secondary objective resolved per cell by the paper's
``CompareCells`` (Algo. 10) rule.  That fold is order-insensitive and equal
to the lexicographic minimum of ``(period, big cores used, little cores
used)`` (DESIGN.md §5), so each prefix length is a handful of whole-plane
NumPy min passes — ``O(n (b+l))`` array operations instead of the
``O(n^2 b l (b+l))`` scalar loop nest.

Every array carries a leading **batch axis**: :func:`herad_batch` sweeps a
whole campaign batch through each operation at once (one instance costs
~3 200 small NumPy calls at ``n = 20, R = (10, 10)``, so a batch amortises
that dispatch), and :func:`herad` is the same DP on a one-row batch.  Rows
never interact; three arguments make a row's answer independent of its
neighbours:

* **Packed DP key.**  The cell key ``(period, acc_b, acc_l)`` with
  first-start tie-break is ``(period, acc_b << 42 | acc_l << 21 | start)``.
  Each component is non-negative and fits its 21-bit lane (guarded at
  entry), so the packing is order-isomorphic and one float min plus one
  integer min give the reduction *and* its winning start.  Tables store the
  key with the start lane zeroed.
* **Masked invalid starts.**  A ``u >= 2``-core stage must be replicable;
  the DP gathers the batch-*union* of replicable starts and masks the rest
  of each row to an infinite stage weight.  An infinite-period candidate
  always carries a positive accumulator while an untouched cell holds
  ``(inf, 0)``, so the strict lexicographic update never fires on one.
* **Padding.**  Planes ``j > n_i`` of a shorter chain hold finite garbage
  that nothing reads: plane ``j`` consumes only planes ``< j``, and
  extraction for instance ``i`` starts at plane ``n_i``.

The literal pseudocode transcription lives in
:mod:`repro.core.herad_reference`; both produce identical periods and core
usages (the extracted stage lists may differ among equivalent ties).

Complexity matches the paper: ``O(n^2 b l (b+l))`` time, ``O(n b l)`` space.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..obs.context import counter_add
from .binary_search import ScheduleOutcome
from .bounds import period_bounds
from .chain_stats import ChainProfile, profile_of
from .errors import InvalidChainError, InvalidPlatformError
from .merge import merge_replicable_stages
from .solution import Solution
from .stage import Stage
from .task import TaskChain
from .types import CoreType, Resources

__all__ = ["herad", "herad_batch", "herad_solution"]

_KEY_SENTINEL = np.iinfo(np.int64).max
#: Three 21-bit lanes of the packed key: ``acc_b << 42 | acc_l << 21 | start``.
_ACC_L_SHIFT = 21
_ACC_B_SHIFT = 2 * _ACC_L_SHIFT
#: Per-type budget / chain-length bound under which the packed key is exact.
#: Far past what the tables could hold: at ``b = 2^21`` the per-``u``
#: geometry alone is ``b^2 / 2 * 4 B`` ~ 8.8 TB.
_LANE_LIMIT = 1 << _ACC_L_SHIFT
_LANE_MASK = _LANE_LIMIT - 1


def _unpack(combo: int) -> tuple[int, int]:
    """The ``(acc_b, acc_l)`` lanes of a stored key."""
    return combo >> _ACC_B_SHIFT, (combo >> _ACC_L_SHIFT) & _LANE_MASK


def _pack(
    profiles: Sequence[ChainProfile],
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Pad per-chain vectors into rectangular planes with a batch axis.

    Returns the two weight-prefix planes (big, little) and the
    next-sequential-task plane, each ``(B, n + 1)`` for the longest chain's
    ``n``.  A shorter chain's prefix row repeats its final value and its
    next-sequential row its own task count ("no sequential task at or after
    a padded position"), so padded cells compute finite garbage — never an
    index error, a NaN or a runtime warning — that no real result reads.
    """
    if not profiles:
        raise InvalidChainError("cannot pack an empty batch of profiles")
    shape = (len(profiles), max(p.n for p in profiles) + 1)
    big, little = np.empty(shape), np.empty(shape)
    next_seq = np.empty(shape, dtype=np.int64)
    for i, profile in enumerate(profiles):
        for plane, row in zip((big, little), profile.prefix):
            plane[i, : row.size] = row
            plane[i, row.size :] = row[-1]
        next_seq[i, : profile.n + 1] = profile.next_sequential
        next_seq[i, profile.n + 1 :] = profile.n
    return (big, little), next_seq


class _BatchTables:
    """The HeRAD solution matrices for a whole batch.

    Axis order is ``(instance, plane, big budget, little budget)`` where
    plane ``j`` describes optimal schedules of the first ``j`` tasks.  The
    ``combo`` plane packs both accumulators (start lane zero).
    """

    __slots__ = ("period", "combo", "prev_b", "prev_l", "vtype", "start")

    def __init__(self, size: int, n: int, big: int, little: int) -> None:
        shape = (size, n + 1, big + 1, little + 1)
        self.period = np.full(shape, np.inf, dtype=np.float64)
        self.period[:, 0] = 0.0  # P*(0, ., .) = 0
        self.combo = np.zeros(shape, dtype=np.int64)
        self.prev_b = np.zeros(shape, dtype=np.int32)
        self.prev_l = np.zeros(shape, dtype=np.int32)
        self.vtype = np.full(shape, int(CoreType.LITTLE), dtype=np.int8)
        self.start = np.zeros(shape, dtype=np.int32)


def _update_plane(
    cur: dict[str, np.ndarray],
    region: tuple[slice, slice],
    new_period: np.ndarray,
    new_key: np.ndarray,
    fields: dict[str, np.ndarray],
) -> None:
    """Strict lexicographic key-compare update on ``region`` of every row.

    Equal keys keep the incumbent — the competing solutions are equivalent
    for both objectives.  ``new_key`` still carries the winner's start in
    its low lane; the combo stored on update has it stripped, and the start
    is delivered through its own plane.
    """
    sel = (slice(None), *region)
    cur_p = cur["period"][sel]
    cur_c = cur["combo"][sel]
    # Lexicographic DP key: both planes hold values produced by the identical
    # max/divide pipeline, so equal values really are bitwise-equal; isclose
    # here would merge distinct optima.  Comparing the un-stripped key is
    # exact: stored combos are multiples of 2^21 and the start lane is
    # non-negative, so ``new_key < cur_c`` holds iff the stripped combo is
    # *strictly* smaller — the start lane can never flip a tie.
    better = (new_period < cur_p) | (
        (new_period == cur_p)  # lint: ignore[float-equality]
        & (new_key < cur_c)
    )
    if not better.any():
        return
    np.copyto(cur_p, new_period, where=better)
    np.copyto(cur_c, new_key & ~_LANE_MASK, where=better)
    np.copyto(
        cur["start"][sel], (new_key & _LANE_MASK).astype(np.int32),
        where=better,
    )
    for name, value in fields.items():
        np.copyto(cur[name][sel], value, where=better)


def _neighbor_sweep(
    cur: dict[str, np.ndarray], big: int, little: int
) -> None:
    """Propagate solutions needing one core fewer (Algo. 9, lines 2-3).

    Each cell must end up holding the lexicographic key minimum over its
    lower-left quadrant (budgets ``(b', l') <= (b, l)``), with the winning
    cell's companion fields carried along.  Instead of the naive
    ``O(b * l)`` scalar double loop, run two vectorized lexicographic
    prefix-minimum passes — one per budget axis, each a Hillis-Steele
    doubling scan (``O(log)`` whole-plane steps) — tracking the flat
    *source* index of each running minimum, then gather the winners' rows
    once at the end.  Prefix minima compose across the two axes because the
    lexicographic minimum is associative and commutative; strict
    comparisons keep the incumbent cell on ties, exactly like the ascending
    scalar loop (``tests/core/test_herad_sweep.py`` holds it to one).
    """
    kp = cur["period"].copy()
    kc = cur["combo"].copy()
    size_b = kp.shape[0]
    plane_cells = kp.shape[1] * kp.shape[2]
    own = np.arange(plane_cells, dtype=np.intp).reshape(kp.shape[1:])
    src = np.broadcast_to(own, kp.shape).copy()

    for axis, size in ((2, little), (1, big)):
        step = 1
        while step <= size:
            if axis == 2:
                prev_p = kp[:, :, :-step].copy()
                prev_c = kc[:, :, :-step].copy()
                prev_s = src[:, :, :-step].copy()
                views = (kp[:, :, step:], kc[:, :, step:], src[:, :, step:])
            else:
                prev_p = kp[:, :-step].copy()
                prev_c = kc[:, :-step].copy()
                prev_s = src[:, :-step].copy()
                views = (kp[:, step:], kc[:, step:], src[:, step:])
            cur_p, cur_c, cur_s = views
            better = (prev_p < cur_p) | (
                (prev_p == cur_p)  # lint: ignore[float-equality]
                & (prev_c < cur_c)
            )
            if better.any():
                np.copyto(cur_p, prev_p, where=better)
                np.copyto(cur_c, prev_c, where=better)
                np.copyto(cur_s, prev_s, where=better)
            step <<= 1

    changed = src != own
    if not changed.any():
        return
    rows = np.arange(size_b, dtype=np.intp)[:, None, None]
    for plane in cur.values():
        winners = plane.reshape(size_b, plane_cells)[rows, src]
        np.copyto(plane, winners, where=changed)


def _fill_tables(
    profiles: Sequence[ChainProfile], big: int, little: int
) -> _BatchTables:
    """Run the DP over all planes for every instance of the batch."""
    prefixes, next_seq = _pack(profiles)
    size, n = next_seq.shape[0], next_seq.shape[1] - 1
    tables = _BatchTables(size, n, big, little)
    caps = {CoreType.BIG: big, CoreType.LITTLE: little}

    bb_grid = np.arange(big + 1, dtype=np.int32)[:, None]
    ll_grid = np.arange(little + 1, dtype=np.int32)[None, :]

    # The working plane: one buffer per field, allocated once and reset per
    # prefix length ``j``.
    shape = (size, big + 1, little + 1)
    cur = {
        "period": np.empty(shape, dtype=np.float64),
        "combo": np.empty(shape, dtype=np.int64),
        "prev_b": np.empty(shape, dtype=np.int32),
        "prev_l": np.empty(shape, dtype=np.int32),
        "vtype": np.empty(shape, dtype=np.int8),
        "start": np.empty(shape, dtype=np.int32),
    }

    # Per-(core type, u) geometry, independent of the prefix length ``j``:
    # the predecessor cells a ``u``-core stage reads, the region it writes,
    # its companion fields (``_update_plane`` broadcasts, so the half-open
    # grids are passed unexpanded) and its packed accumulator increment.
    group: dict[tuple[CoreType, int], tuple] = {}
    for u in range(1, big + 1):
        pred = (slice(0, big + 1 - u), slice(None))
        region = (slice(u, big + 1), slice(None))
        fields = {
            "prev_b": bb_grid[u:] - u,
            "prev_l": ll_grid,
            "vtype": np.int8(int(CoreType.BIG)),
        }
        group[CoreType.BIG, u] = (pred, region, fields, np.int64(u) << _ACC_B_SHIFT)
    for u in range(1, little + 1):
        pred = (slice(None), slice(0, little + 1 - u))
        region = (slice(None), slice(u, little + 1))
        fields = {
            "prev_b": bb_grid,
            "prev_l": ll_grid[:, u:] - u,
            "vtype": np.int8(int(CoreType.LITTLE)),
        }
        group[CoreType.LITTLE, u] = (pred, region, fields, np.int64(u) << _ACC_L_SHIFT)

    for j in range(1, n + 1):
        end = j - 1
        cur["period"].fill(np.inf)
        cur["combo"].fill(0)
        cur["prev_b"].fill(0)
        cur["prev_l"].fill(0)
        cur["vtype"].fill(int(CoreType.LITTLE))
        cur["start"].fill(0)

        # rep[i, s]: interval [s, end] of instance i is replicable (padded
        # rows yield garbage that the inf-mask argument neutralizes).  For
        # u >= 2 only the batch-union of replicable starts is gathered —
        # the complement would be all-masked rows, pure wasted work.
        rep = next_seq[:, :j] > end
        rep_union = np.flatnonzero(rep.any(axis=0)).astype(np.int64)
        all_starts = np.arange(j, dtype=np.int64)[None, :, None, None]
        # Gather the replicable-start predecessor block once per plane; the
        # per-u pred regions below are plain slice views into it.
        if rep_union.size:
            rep_period = tables.period[:, rep_union]
            rep_combo = tables.combo[:, rep_union]

        for core_type in (CoreType.BIG, CoreType.LITTLE):
            cap = caps[core_type]
            if cap == 0:
                continue
            # weights[i, s] = w([tau_s, tau_end], 1, v) of instance i.
            prefix = prefixes[int(core_type)]
            weights = prefix[:, j : j + 1] - prefix[:, :j]
            rep_w = weights[:, rep_union]
            rep_mask = rep[:, rep_union]
            rep_starts = rep_union[None, :, None, None]

            for u in range(1, cap + 1):
                pred_grid, region, fields, add = group[core_type, u]
                if u == 1:
                    pred = (slice(None), slice(0, j), *pred_grid)
                    cand_p = np.maximum(
                        tables.period[pred], weights[:, :, None, None]
                    )
                    cand_k = tables.combo[pred] + (all_starts + add)
                else:
                    # Sequential stages gain nothing from extra cores
                    # (Section V optimization): only replicable starts can
                    # host a u-core stage; instances for which a gathered
                    # union start is sequential are masked to inf, which
                    # the strict key update ignores.
                    if rep_union.size == 0:
                        break
                    pred = (slice(None), slice(None), *pred_grid)
                    stage_w = np.where(rep_mask, rep_w / u, np.inf)
                    cand_p = np.maximum(
                        rep_period[pred], stage_w[:, :, None, None]
                    )
                    cand_k = rep_combo[pred] + (rep_starts + add)

                p_min = cand_p.min(axis=1)
                # Exact DP tie-break: p_min comes from the very array it is
                # compared to, so equal values are bitwise-identical by
                # construction; the packed-key min over the period-tied
                # candidates then resolves ties by (acc_b, acc_l, start).
                mask = cand_p == p_min[:, None]  # lint: ignore[float-equality]
                key_min = np.min(
                    cand_k, axis=1, where=mask, initial=_KEY_SENTINEL
                )
                _update_plane(cur, region, p_min, key_min, fields)

        _neighbor_sweep(cur, big, little)
        for name, plane in cur.items():
            getattr(tables, name)[:, j] = plane

    return tables


def _extract(
    tables: _BatchTables, row: int, n: int, big: int, little: int
) -> Solution:
    """Paper's ``ExtractSolution`` (Algo. 11) on one batch row."""
    end = n - 1
    r_b, r_l = big, little
    stages: list[Stage] = []

    while end >= 0:
        j = end + 1
        if not math.isfinite(tables.period[row, j, r_b, r_l]):
            return Solution.empty()
        start = int(tables.start[row, j, r_b, r_l])
        used_b, used_l = _unpack(int(tables.combo[row, j, r_b, r_l]))
        p_b = int(tables.prev_b[row, j, r_b, r_l])
        p_l = int(tables.prev_l[row, j, r_b, r_l])
        if start > 0:
            prev_b, prev_l = _unpack(int(tables.combo[row, start, p_b, p_l]))
            used_b -= prev_b
            used_l -= prev_l
        vtype = CoreType(int(tables.vtype[row, j, r_b, r_l]))
        cores = used_b if vtype is CoreType.BIG else used_l
        stages.append(Stage(start, end, cores, vtype))
        end = start - 1
        r_b, r_l = p_b, p_l

    stages.reverse()
    return Solution(stages)


def _solve(
    profiles: Sequence[ChainProfile], resources: Resources, merge: bool
) -> list[Solution]:
    """Guard, count, fill and extract: one solution per profile."""
    if resources.ktype != 2:
        raise InvalidPlatformError(
            "HeRAD's DP is specialized to two core types; use the k-type "
            f"reference solver for a {resources.ktype}-type budget"
        )
    if resources.total <= 0:
        raise InvalidPlatformError("HeRAD needs at least one core")
    big, little = resources.big, resources.little
    if max(big, little, *(p.n for p in profiles)) >= _LANE_LIMIT:
        raise InvalidPlatformError(
            "instance exceeds HeRAD's packed-key lanes (budget per type "
            f"and chain length must both be < {_LANE_LIMIT})"
        )
    # Observability hook: DP table volume is HeRAD's cost driver
    # (O(n * b * l) cells); no-op unless an obs context is ambient.
    for profile in profiles:
        counter_add("herad.calls")
        counter_add(
            "herad.dp_cells", (profile.n + 1) * (big + 1) * (little + 1)
        )

    tables = _fill_tables(profiles, big, little)

    solutions: list[Solution] = []
    for row, profile in enumerate(profiles):
        solution = _extract(tables, row, profile.n, big, little)
        if merge and not solution.is_empty:
            solution = merge_replicable_stages(solution, profile)
        solutions.append(solution)
    return solutions


def _outcome(
    profile: ChainProfile, solution: Solution, resources: Resources
) -> ScheduleOutcome:
    """HeRAD performs no binary search: ``iterations`` is 0 and ``bounds``
    reports the analytic period bracket."""
    return ScheduleOutcome(
        solution=solution,
        period=solution.period(profile),
        iterations=0,
        bounds=period_bounds(profile, resources),
        probes=(),
    )


def herad_batch(
    profiles: Sequence[ChainProfile], resources: Resources
) -> list[ScheduleOutcome]:
    """Solve a batch of chains optimally in one DP sweep.

    Returns one :class:`~repro.core.binary_search.ScheduleOutcome` per
    profile, in batch order; a row's outcome does not depend on the rest of
    the batch.

    Raises:
        InvalidChainError: on an empty batch.
        InvalidPlatformError: on a non-two-type or empty budget, or an
            instance outside the packed-key lanes.
    """
    solutions = _solve(profiles, resources, merge=True)
    return [
        _outcome(profile, solution, resources)
        for profile, solution in zip(profiles, solutions)
    ]


def herad_solution(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    merge: bool = True,
) -> Solution:
    """Compute HeRAD's optimal schedule and return the solution only.

    Args:
        chain: the task chain (or a precomputed profile).
        resources: the platform budget ``R = (b, l)``.
        merge: apply the paper's extra step merging consecutive replicable
            stages mapped to the same core type (period-neutral, shorter
            pipelines).

    Raises:
        InvalidPlatformError: for an empty budget.
    """
    return _solve((profile_of(chain),), resources, merge)[0]


def herad(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    merge: bool = True,
) -> ScheduleOutcome:
    """Schedule a chain optimally with HeRAD (Algo. 7).

    Returns a :class:`~repro.core.binary_search.ScheduleOutcome` for
    interface parity with the greedy strategies.
    """
    profile = profile_of(chain)
    solution = herad_solution(profile, resources, merge=merge)
    return _outcome(profile, solution, resources)
