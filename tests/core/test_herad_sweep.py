"""HeRAD's doubling-scan neighbor sweep against the literal ascending loop.

:func:`repro.core.herad._neighbor_sweep` replaces Algo. 9's ``O(b * l)``
scalar double loop with two Hillis-Steele prefix-minimum scans — a
performance decision that must never be observable, least of all on the
degenerate budgets (``big=0``, ``little=0``, one core total) where the scan
has nothing to double over.  The loop is written out here, as the paper
has it, and random tie-heavy planes are swept through both.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.types import CoreType

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


def _random_planes(
    rng, rows: int, big: int, little: int
) -> dict[str, np.ndarray]:
    """Working planes with deliberate period ties and infeasible cells.

    Companion fields (``prev_*`` / ``vtype`` / ``start``) are *derived* from
    the ``(period, combo)`` key rather than drawn independently: when two
    cells carry bitwise-equal keys, either may win a tie, and the sweeps
    only promise identical results when equal keys imply equal payloads —
    which is exactly what real DP planes guarantee (a key determines the
    winning candidate).  Independent random fields would test a stronger
    property neither implementation claims.
    """
    shape = (rows, big + 1, little + 1)
    # Few distinct period values -> plenty of ties for the key comparison;
    # some cells infeasible (inf) like real early-prefix planes.
    period = rng.choice([1.0, 2.0, 4.0, np.inf], size=shape)
    acc_b = rng.integers(0, big + 1, size=shape)
    acc_l = rng.integers(0, little + 1, size=shape)
    finite = np.where(np.isinf(period), 99.0, period).astype(np.int64)
    mix = acc_b * 7 + acc_l * 13 + finite * 31
    combo = (acc_b << herad_mod._ACC_B_SHIFT) | (acc_l << herad_mod._ACC_L_SHIFT)
    return {
        "period": period,
        "combo": combo,
        "prev_b": (mix % (big + 2)).astype(np.int32),
        "prev_l": (mix % (little + 2)).astype(np.int32),
        "vtype": np.where(
            mix % 2 == 0, int(CoreType.BIG), int(CoreType.LITTLE)
        ).astype(np.int8),
        "start": (mix % 8).astype(np.int32),
    }


def _literal_sweep(cur: dict[str, np.ndarray], big: int, little: int) -> None:
    """Algo. 9, lines 2-3: each cell takes the better of its two lower
    neighbours, which are final by the time the ascending loop reaches it."""
    for row in range(cur["period"].shape[0]):
        for bb in range(big + 1):
            for ll in range(little + 1):
                best = (bb, ll)
                for nb in ((bb, ll - 1), (bb - 1, ll)):
                    if min(nb) < 0:
                        continue
                    key = (cur["period"][row][nb], cur["combo"][row][nb])
                    if key < (cur["period"][row][best], cur["combo"][row][best]):
                        best = nb
                for plane in cur.values():
                    plane[row][bb, ll] = plane[row][best]


def _assert_sweeps_agree(rng, rows: int, big: int, little: int) -> None:
    planes = _random_planes(rng, rows, big, little)
    want = {name: plane.copy() for name, plane in planes.items()}
    _literal_sweep(want, big, little)
    herad_mod._neighbor_sweep(planes, big, little)
    for name, plane in planes.items():
        assert np.array_equal(plane, want[name]), f"field {name} diverged"


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_batch_sweep_matches_scalar_sweep(budget):
    """One-row planes — the shape ``herad()`` solves on."""
    big, little = budget
    rng = np.random.default_rng(1000 + big * 100 + little)
    for _ in range(20):
        _assert_sweeps_agree(rng, 1, big, little)


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_scalar_and_vectorized_sweeps_identical(budget):
    """Three-row planes: each batch row is swept as if it were alone."""
    big, little = budget
    rng = np.random.default_rng(big * 100 + little)
    for _ in range(10):
        _assert_sweeps_agree(rng, 3, big, little)
