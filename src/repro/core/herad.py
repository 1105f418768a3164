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
NumPy min passes instead of the ``O(n^2 b l (b+l))`` scalar loop nest: the
candidates of one core type are folded a *block* of core counts ``u`` at a
time (:func:`_fill_tables`), and Algo. 9's neighbour propagation is one
ranked prefix minimum per budget axis (:func:`_neighbor_sweep`).

Every array carries a leading **batch axis**: :func:`herad_batch` sweeps a
whole campaign batch through each operation at once (one instance at ``n =
20, R = (10, 10)`` is ~2.5 ms, nearly all of it NumPy dispatch, which a
batch amortises), and :func:`herad` is the same DP on a one-row batch.
Rows never interact; three arguments make a row's answer independent of
its neighbours:

* **Packed DP key.**  The cell key ``(period, acc_b, acc_l)`` with the
  paper's candidate order as tie-break is ``(period, acc_b << 42 | acc_l <<
  21 | q * (n + 1) + start)``, where ``q`` numbers the stage's ``(type,
  u)``: ``u - 1`` on big, ``b + u - 1`` on little.  Each component is
  non-negative and fits its 21-bit lane (guarded at entry), so the packing
  is order-isomorphic and one float min plus one integer min give the
  reduction *and* its winning candidate.  Tables store the key with the
  low lane zeroed; ``how`` keeps that lane beside the neighbour sweep's
  source cell, which is all :func:`_extract` needs.
* **Masked invalid starts.**  A ``u >= 2``-core stage must be replicable;
  the DP reads the run of starts from the batch's first replicable one on
  and masks the rest of each row to an infinite stage weight.  An
  infinite-period candidate always carries a positive accumulator while an
  untouched cell holds ``(inf, 0)``, so no such candidate wins a cell —
  nor one read from the ``(inf, 0)`` padding below budget zero
  (:func:`_padded_planes`) — and a cell no finite candidate reaches keeps
  ``(inf, 0)``.
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
from typing import NamedTuple, Sequence

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
#: Three 21-bit lanes of the packed key: ``acc_b << 42 | acc_l << 21 | low``,
#: ``low = q * (n + 1) + start`` naming the candidate.
_ACC_L_SHIFT = 21
_ACC_B_SHIFT = 2 * _ACC_L_SHIFT
#: Bound on ``(b + l) * (n + 1)``, under which every lane of the key is
#: exact.  Far past what the DP could walk: at ``b = 2^20`` the ``u`` loop
#: of one plane alone visits ``b^2 / 2`` ~ 5.5e11 candidate cells.
_LANE_LIMIT = 1 << _ACC_L_SHIFT
_LANE_MASK = _LANE_LIMIT - 1
#: Candidate cells ``(row, start, u, b, l)`` one block of ``u`` values may
#: hold (a single ``u`` is always allowed).  Below it a plane is bound by
#: NumPy dispatch and stacking ``u`` removes calls; above it by memory
#: traffic.  Measured (before blocks wrote slots) on Table I's three
#: budgets, 20 tasks, ms per row at 1 / 2^13 / 2^14 / 2^15 /
#: 2^16 / 2^20: one row 8.9 / 4.1 / 4.1 / 4.0 / 4.0 / 4.3, ten rows 2.54 /
#: 1.78 / 1.49 / 1.50 / 1.53 / 1.61, fifty rows 1.47 / 1.51 / 1.51 / 1.47 /
#: 1.46 / 1.71 (run-to-run spread ~0.1).
_BLOCK_CELLS = 1 << 15


def _decode(
    how: int, width: int, big: int, little: int
) -> tuple[int, int, CoreType, int, int]:
    """A ``how`` entry as ``(source_b, source_l, type, cores, start)``: the
    cell whose candidate won, and that candidate's last stage."""
    q, start = divmod(how & _LANE_MASK, width)
    source_b, source_l = divmod(how >> _ACC_L_SHIFT, little + 1)
    if q < big:
        return source_b, source_l, CoreType.BIG, q + 1, start
    return source_b, source_l, CoreType.LITTLE, q - big + 1, start


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
            plane[i, : len(row)] = row
            plane[i, len(row) :] = row[-1]
        next_seq[i, : profile.n + 1] = profile.next_sequential
        next_seq[i, profile.n + 1 :] = profile.n
    return (big, little), next_seq


def _padded_planes(
    size: int, n: int, pad: int, rows: int, cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Period and combo planes ``(size, n + 1, rows, cols)`` of a DP table.

    Each plane is preceded in memory by ``pad`` more rows holding ``(inf,
    0)``: "a stage of ``u`` cores out of a budget of fewer" reads an
    infeasible predecessor there instead of needing a branch, which is what
    lets one strided window serve several ``u`` at once
    (:func:`_fill_tables`, whose window arithmetic relies on each returned
    view's ``.base`` being that padded storage).
    """
    shape = (size, n + 1, pad + rows, cols)
    period = np.full(shape, np.inf)[:, :, pad:]
    period[:, 0] = 0.0  # P*(0, ., .) = 0
    return period, np.zeros(shape, dtype=np.int64)[:, :, pad:]


class _BatchTables:
    """The HeRAD solution matrices for a whole batch.

    Axis order is ``(instance, plane, big budget, little budget)`` where
    plane ``j`` describes optimal schedules of the first ``j`` tasks.  The
    ``combo`` plane packs both accumulators (low lane zero); ``period`` and
    ``combo`` are :func:`_padded_planes` with ``pad`` rows below big budget
    zero.  ``how`` is ``source << 21 | low``: the flat in-plane index of the
    cell whose candidate the neighbour sweep kept, and that candidate's low
    lane (:func:`_decode`).
    """

    __slots__ = ("period", "combo", "how")

    def __init__(
        self, size: int, n: int, big: int, little: int, pad: int
    ) -> None:
        shape = (size, n + 1, big + 1, little + 1)
        self.period, self.combo = _padded_planes(size, n, pad, *shape[2:])
        self.how = np.zeros(shape, dtype=np.int64)


def _neighbor_sweep(period: np.ndarray, combo: np.ndarray) -> np.ndarray:
    """Propagate solutions needing one core fewer (Algo. 9, lines 2-3).

    Each cell must end up holding the lexicographic ``(period, combo)``
    minimum over its lower-left quadrant (budgets ``(b', l') <= (b, l)``).
    Returns, per cell of the ``(instance, big, little)`` planes, the flat
    in-plane index of the cell that wins its quadrant; among equal keys the
    winner is the one with the largest ``b'``, then the largest ``l'`` —
    the cell itself whenever it ties (``tests/core/test_herad_sweep.py``
    holds both to the literal ascending loops).

    The pair is first replaced by its dense rank, so that ``rank * cells +
    (cells - 1 - flat index)`` is one integer whose minimum is the minimal
    key at the largest position; a prefix minimum is then one
    ``np.minimum.accumulate`` per budget axis (minima compose across the
    axes, being associative and commutative) and the remainder modulo
    ``cells`` is the source.  Rows are ranked apart, so ``rank < cells`` and
    the code stays far inside an ``int64`` for any plane that fits in memory.
    """
    size, cells = period.shape[0], period.shape[1] * period.shape[2]
    flat_p, flat_c = period.reshape(size, cells), combo.reshape(size, cells)
    order = np.lexsort((flat_c, flat_p))  # each row by period, then combo
    rows = np.arange(size)[:, None]
    sorted_p, sorted_c = flat_p[rows, order], flat_c[rows, order]
    ranks = np.zeros((size, cells), dtype=np.int64)
    np.cumsum(
        (sorted_p[:, 1:] != sorted_p[:, :-1])  # lint: ignore[float-equality]
        | (sorted_c[:, 1:] != sorted_c[:, :-1]),
        axis=1,
        out=ranks[:, 1:],
    )
    code = np.empty((size, cells), dtype=np.int64)
    code[rows, order] = ranks
    code *= cells
    code += np.arange(cells - 1, -1, -1)
    code = code.reshape(period.shape)
    np.minimum.accumulate(code, axis=2, out=code)
    np.minimum.accumulate(code, axis=1, out=code)
    code %= cells
    return np.subtract(cells - 1, code, out=code)


class _Lane(NamedTuple):
    """One core type's view of the DP, with that type's budget as the row
    axis of every plane — "``u`` cores fewer" is then a shift by whole rows
    and the ``(rows, cols)`` run a block reads is contiguous."""

    prefix: np.ndarray  #: (size, n + 1) weight prefix sums on this type
    cap: int  #: cores of this type
    pred_p: np.ndarray  #: predecessor periods (:func:`_padded_planes`)
    pred_k: np.ndarray  #: predecessor combos
    pad: int  #: rows of padding in front of each predecessor plane
    slot_p: np.ndarray  #: the plane's per-block period minima ...
    slot_k: np.ndarray  #: ... and key minima, row-major in this type
    adds: np.ndarray  #: (n, cap) key increment of start s on u = 1 .. cap
    divisors: np.ndarray  #: u = 2 .. cap as floats


def _fill_tables(
    profiles: Sequence[ChainProfile], big: int, little: int
) -> _BatchTables:
    """Run the DP over all planes for every instance of the batch.

    Plane ``j`` is the lexicographic minimum of ``(period, combo, q,
    start)`` over the candidates, which is what the paper's first-wins fold
    over big then little ``u = 1, 2, ...`` keeps.  A *block* is one core
    type, a run of consecutive ``u`` and a run of starts, evaluated as one
    ``max(P[start, budget - u], w / u)`` array read through a strided
    window of the padded predecessor planes and reduced by one float min
    and one key min over the period-tied into its own *slot* of a stack;
    the plane is the same reduction over the slots.  How many ``u`` a block
    stacks is set by its candidate count (:data:`_BLOCK_CELLS`): a one-row
    plane folds all of ``u >= 2`` at once, a fifty-row span one at a time.
    """
    prefixes, next_seq = _pack(profiles)
    size, n = next_seq.shape[0], next_seq.shape[1] - 1
    plane = (size, big + 1, little + 1)
    cells = plane[1] * plane[2]
    # The most u values one block may stack: what the candidate budget
    # allows at a single start, and the u >= 2 a lane has (a block never
    # reaches past its type's cap).
    stack = max(1, min(_BLOCK_CELLS // (size * cells), max(big, little) - 1))

    def depth_at(reach: int) -> int:
        """``u`` per block when the ``u >= 2`` blocks read ``reach`` starts."""
        return max(1, min(stack, _BLOCK_CELLS // (size * reach * cells)))

    pad_b, pad_l = (max(0, min(stack, cap - 1) - 1) for cap in (big, little))
    tables = _BatchTables(size, n, big, little, pad_b)

    # The slot stack: slot 0 is the untouched cell (inf, 0), blocks write
    # slots 1, 2, ... in candidate order, and a full stack's minimum moves
    # to slot 1 (the key orders a cell's candidates totally, so partial
    # minima compose).  It holds every block of a plane, but no more slots
    # than the table has planes: the DP's space stays O(n b l).  A block
    # covers the budgets that can host its u0; what lies below keeps an inf
    # period and a non-negative key, which the tie mask raises to the
    # sentinel.
    slots = min(
        max(3, n + 1),
        1 + sum(1 + -(-(v - 1) // depth_at(n)) for v in (big, little) if v),
    )
    stack_p = np.full((slots, *plane), np.inf)
    stack_k = np.zeros((slots, *plane), dtype=np.int64)
    # Candidate buffers, sized for the largest block the loop builds: a
    # single-u block holds at most every start at one u, a stacked one at
    # most _BLOCK_CELLS (the depth rule) and at most every start at
    # ``stack`` u — so past that product a larger cap costs no memory.
    room = max(size * n * cells, min(_BLOCK_CELLS, size * n * cells * stack))
    work_p = np.empty(room)
    work_k = np.empty(room, dtype=np.int64)

    starts = np.arange(n, dtype=np.int64)
    row_base = (np.arange(size) * cells)[:, None, None]

    # Big reads the tables themselves; little a little-major twin of their
    # period and combo, written alongside.  A stage from start s on u cores
    # adds u to its type's accumulator and q * (n + 1) + s to the low lane,
    # with q = u - 1 on big and big + u - 1 on little.
    def adds(cap: int, shift: int, q0: int) -> np.ndarray:
        u = np.arange(1, cap + 1, dtype=np.int64)
        return starts[:, None] + (u << shift) + (q0 + u - 1) * (n + 1)

    lanes = []
    if big:
        lanes.append(_Lane(
            prefixes[int(CoreType.BIG)], big, tables.period, tables.combo,
            pad_b, stack_p, stack_k, adds(big, _ACC_B_SHIFT, 0),
            np.arange(2, big + 1, dtype=np.float64),
        ))
    if little:
        twin_p, twin_k = _padded_planes(size, n, pad_l, little + 1, big + 1)
        lanes.append(_Lane(
            prefixes[int(CoreType.LITTLE)], little, twin_p, twin_k, pad_l,
            stack_p.transpose(0, 1, 3, 2), stack_k.transpose(0, 1, 3, 2),
            adds(little, _ACC_L_SHIFT, big),
            np.arange(2, little + 1, dtype=np.float64),
        ))

    def reduce(count: int) -> tuple[np.ndarray, np.ndarray]:
        """The lexicographic minimum over slots ``[0, count)``, which are
        then reset.  Float equality is exact as in ``fold``."""
        used_p, used_k = stack_p[:count], stack_k[:count]
        low_p = np.minimum.reduce(used_p, axis=0)
        np.copyto(used_k, _KEY_SENTINEL, where=used_p != low_p)  # lint: ignore[float-equality]
        low_k = np.minimum.reduce(used_k, axis=0)
        used_p[1:], used_k[0] = np.inf, 0
        return low_p, low_k

    def fold(
        lane: _Lane, slot: int, first: int, u0: int, stage_w: np.ndarray
    ) -> int:
        """Reduce a block into ``slot`` (slot 2 if the stack is full), return
        the next slot: ``count`` starts from ``first`` by ``u0 <= u < u0 +
        depth`` cores of ``lane``'s type, ``stage_w`` their ``(size, count,
        depth)`` stage weights (infinite where a row's start is masked)."""
        if slot == slots:
            stack_p[1], stack_k[1] = reduce(slots)
            slot = 2
        count, depth = stage_w.shape[1:]
        rows, cols = lane.cap + 1 - u0, lane.pred_p.shape[3]
        block = (size, count, depth, rows, cols)
        flat = (size, count * depth, rows, cols)
        used = size * count * depth * rows * cols

        def window(pred: np.ndarray) -> np.ndarray:
            # [row, s, k, r, c] -> pred[row, first + s, r - k, c]: row r of
            # the region is budget u0 + r, and u0 + k cores fewer is r - k.
            by_row, by_plane, by_r, by_c = pred.strides
            return np.ndarray(
                block, pred.dtype, pred.base,
                lane.pad * by_r + first * by_plane,
                (by_row, by_plane, -by_r, by_r, by_c),
            )

        cand_p = work_p[:used].reshape(flat)
        cand_k = work_k[:used].reshape(flat)
        np.maximum(
            window(lane.pred_p), stage_w[:, :, :, None, None],
            out=cand_p.reshape(block),
        )
        # Reduced into fresh arrays, then copied: reducing straight into
        # little's transposed slot view was ~4x slower on large planes.
        p_min = np.minimum.reduce(cand_p, axis=1)
        lane.slot_p[slot, :, u0:] = p_min
        # Exact DP tie-break: p_min comes from the very array it is
        # compared to, so equal values are bitwise-identical by
        # construction; the packed-key min over the period-tied candidates
        # then resolves ties by (acc_b, acc_l, q, start).  The others are
        # raised to the sentinel (0 / 1 -> 0 / all ones, or-ed in), which
        # measures at a third of ``np.min(..., where=)``; the float buffer
        # is dead once they are known and lends its bytes to the keys.
        np.not_equal(cand_p, p_min[:, None], out=cand_k)  # lint: ignore[float-equality]
        cand_k *= _KEY_SENTINEL
        keys = cand_p.view(np.int64)
        inc = lane.adds[first : first + count, u0 - 1 : u0 - 1 + depth]
        np.add(
            window(lane.pred_k), inc[:, :, None, None],
            out=keys.reshape(block),
        )
        cand_k |= keys
        lane.slot_k[slot, :, u0:] = np.minimum.reduce(cand_k, axis=1)
        return slot + 1

    for j in range(1, n + 1):
        end = j - 1
        # rep[i, s]: interval [s, end] of instance i is replicable (padded
        # rows yield garbage that the inf-mask argument neutralizes).  For
        # u >= 2 only the starts from the batch's first replicable one on
        # are read: replicable starts are a suffix of each row, so that run
        # is their union and anything before it would be all-masked rows.
        rep = next_seq[:, :j] > end
        any_rep = rep.any(axis=0)
        first = int(any_rep.argmax()) if any_rep.any() else j

        slot = 1
        for lane in lanes:
            # weights[i, s] = w([tau_s, tau_end], 1, v) of instance i.
            weights = lane.prefix[:, j : j + 1] - lane.prefix[:, :j]
            weights = weights[:, :, None]
            slot = fold(lane, slot, 0, 1, weights)
            if lane.cap == 1 or first == j:
                continue
            # Sequential stages gain nothing from extra cores (Section V
            # optimization): only replicable starts can host a u-core
            # stage; instances for which a start of the run is sequential
            # are masked to inf, which never wins a cell.
            stage_w = np.where(
                rep[:, first:, None], weights[:, first:] / lane.divisors, np.inf
            )
            step = depth_at(j - first)
            for k in range(0, lane.cap - 1, step):
                slot = fold(
                    lane, slot, first, 2 + k, stage_w[:, :, k : k + step]
                )

        cur_p, cur_k = reduce(slot)
        combo = cur_k & ~_LANE_MASK
        source = _neighbor_sweep(cur_p, combo)
        winner = source + row_base
        tables.period[:, j] = won_p = cur_p.ravel()[winner]
        tables.combo[:, j] = won_k = combo.ravel()[winner]
        if little:
            twin_p[:, j] = won_p.transpose(0, 2, 1)
            twin_k[:, j] = won_k.transpose(0, 2, 1)
        source <<= _ACC_L_SHIFT
        source |= cur_k.ravel()[winner] & _LANE_MASK
        tables.how[:, j] = source

    return tables


def _extract(
    tables: _BatchTables, row: int, n: int, big: int, little: int
) -> Solution:
    """Paper's ``ExtractSolution`` (Algo. 11) on one batch row, from the
    cell at budget ``(big, little)`` (any cell of the tables): each cell's
    stage and source come from ``how``, and the stage before it ends at the
    source's budget less the stage's cores."""
    _, width, rows, cols = tables.how.shape
    end, r_b, r_l = n - 1, big, little
    stages: list[Stage] = []

    while end >= 0:
        j = end + 1
        if not math.isfinite(tables.period[row, j, r_b, r_l]):
            return Solution.empty()
        r_b, r_l, vtype, cores, start = _decode(
            int(tables.how[row, j, r_b, r_l]), width, rows - 1, cols - 1
        )
        if vtype is CoreType.BIG:
            r_b -= cores
        else:
            r_l -= cores
        stages.append(Stage(start, end, cores, vtype))
        end = start - 1

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
    n = max((p.n for p in profiles), default=0)
    if (big + little) * (n + 1) > _LANE_LIMIT:
        raise InvalidPlatformError(
            "instance exceeds HeRAD's packed-key lanes ((big + little) * "
            f"(chain length + 1) must be <= {_LANE_LIMIT})"
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
