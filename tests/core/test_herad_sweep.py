"""HeRAD's rank-accumulate neighbor sweep against the literal ascending loops.

:func:`repro.core.herad._neighbor_sweep` replaces Algo. 9's ``O(b * l)``
scalar double loop with a dense rank and one ``np.minimum.accumulate`` per
budget axis — a performance decision that must never be observable, least
of all on the degenerate budgets (``big=0``, ``little=0``, one core total)
where an axis has nothing to accumulate over.

Two things are pinned, on random tie-heavy planes.  The *key* every cell
ends up with is the one Algo. 9's two-neighbour loop leaves there, written
out as the paper has it.  The *source cell* that key is taken from decides
the four companion tables, so among equal keys it is pinned too: the
winner is the one an ascending pass along the little axis followed by an
ascending pass along the big axis keeps, each with a strict compare — the
largest ``b'``, then the largest ``l'``.  (The two-neighbour loop settles
equal keys differently — its winner depends on the order the neighbours
are asked in — so it can only speak for keys.)
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

# The package re-exports the ``herad`` *function* under the submodule's
# name, so attribute-style module access would resolve to the function.
herad_mod = importlib.import_module("repro.core.herad")

#: Degenerate budgets first, then tiny planes and a paper-sized one.
_BUDGETS = (
    (0, 5),
    (5, 0),
    (0, 0),
    (1, 0),
    (0, 1),
    (1, 1),
    (2, 2),
    (4, 6),
    (10, 10),
)


def _random_planes(rng, rows: int, big: int, little: int):
    """Period and combo planes with deliberate ties and infeasible cells:
    few distinct periods (some ``inf``, like real early-prefix planes) and
    accumulators drawn from the whole budget, so that equal keys sit in
    several cells of most quadrants."""
    shape = (rows, big + 1, little + 1)
    period = rng.choice([1.0, 2.0, 4.0, np.inf], size=shape)
    acc_b = rng.integers(0, min(big, 2) + 1, size=shape)
    acc_l = rng.integers(0, min(little, 2) + 1, size=shape)
    combo = (acc_b << herad_mod._ACC_B_SHIFT) | (acc_l << herad_mod._ACC_L_SHIFT)
    return period, combo


def _two_neighbour_keys(period, combo):
    """Algo. 9, lines 2-3: each cell takes the better of its two lower
    neighbours, which are final by the time the ascending loop reaches it."""
    period, combo = period.copy(), combo.copy()
    rows, size_b, size_l = period.shape
    for row in range(rows):
        for bb in range(size_b):
            for ll in range(size_l):
                best = (bb, ll)
                for nb in ((bb, ll - 1), (bb - 1, ll)):
                    if min(nb) < 0:
                        continue
                    key = (period[row][nb], combo[row][nb])
                    if key < (period[row][best], combo[row][best]):
                        best = nb
                period[row][bb, ll] = period[row][best]
                combo[row][bb, ll] = combo[row][best]
    return period, combo


def _two_pass_sources(period, combo):
    """The source of every cell's quadrant minimum: an ascending pass along
    the little axis, then one along the big axis, the incumbent kept on
    equal keys."""
    rows, size_b, size_l = period.shape
    own = np.arange(size_b * size_l).reshape(size_b, size_l)
    source = np.broadcast_to(own, period.shape).copy()

    def key(row, cell):
        at = np.unravel_index(source[row][cell], (size_b, size_l))
        return (period[row][at], combo[row][at])

    for row in range(rows):
        for bb in range(size_b):
            for ll in range(1, size_l):
                if key(row, (bb, ll - 1)) < key(row, (bb, ll)):
                    source[row][bb, ll] = source[row][bb, ll - 1]
        for bb in range(1, size_b):
            for ll in range(size_l):
                if key(row, (bb - 1, ll)) < key(row, (bb, ll)):
                    source[row][bb, ll] = source[row][bb - 1, ll]
    return source


def _assert_sweep_agrees(rng, rows: int, big: int, little: int) -> None:
    period, combo = _random_planes(rng, rows, big, little)
    before = period.copy(), combo.copy()
    source = herad_mod._neighbor_sweep(period, combo)
    assert np.array_equal(period, before[0]) and np.array_equal(combo, before[1])
    assert np.array_equal(source, _two_pass_sources(period, combo))
    want_p, want_c = _two_neighbour_keys(period, combo)
    at = np.arange(rows)[:, None, None], *np.unravel_index(source, period.shape[1:])
    assert np.array_equal(period[at], want_p)
    assert np.array_equal(combo[at], want_c)


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_batch_sweep_matches_scalar_sweep(budget):
    """One-row planes — the shape ``herad()`` solves on."""
    big, little = budget
    rng = np.random.default_rng(1000 + big * 100 + little)
    for _ in range(20):
        _assert_sweep_agrees(rng, 1, big, little)


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_scalar_and_vectorized_sweeps_identical(budget):
    """Three-row planes: ranks are per row, so a neighbour row's keys never
    reorder this row's ties."""
    big, little = budget
    rng = np.random.default_rng(big * 100 + little)
    for _ in range(10):
        _assert_sweep_agrees(rng, 3, big, little)


def test_equal_keys_take_the_largest_big_then_little_budget():
    """The tie rule in one picture: the same key in four cells."""
    period = np.full((1, 4, 4), 9.0)
    combo = np.zeros((1, 4, 4), dtype=np.int64)
    for cell in ((0, 3), (1, 0), (1, 2), (2, 1)):
        period[(0, *cell)] = 1.0
    winner = np.unravel_index(
        herad_mod._neighbor_sweep(period, combo)[0], (4, 4)
    )

    def won(b, l):
        return winner[0][b, l], winner[1][b, l]

    assert won(3, 3) == (2, 1)  # largest b' wins over larger l'
    assert won(1, 3) == (1, 2)  # then the largest l' in that row
    assert won(3, 0) == (1, 0)
    assert won(0, 3) == (0, 3)
    assert won(0, 2) == (0, 2)  # nothing better below: itself
