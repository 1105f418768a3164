"""Batch-vectorized HeRAD (what every campaign solves the optimum on).

One kernel call solves *many* chains: profiles are packed into padded
ndarray planes (:mod:`.pack`) and HeRAD's DP sweeps the whole batch per
plane (:mod:`.herad_batch`).  The greedy strategies have no kernel: their
campaigns map the scalar walks (2CATAC with its subproblem memo on), which
a 2CATAC state-DP kernel lost to on 17 of 18 Table I cells (DESIGN.md §12).

The kernel is specialized to the paper's two-type platform and promises
**bitwise-identical** outcomes to the pure-python solver, which remains the
differential oracle (replayed over the full ``tests/data/k2_oracle.json``
fixture through this tier).  Entry is through
:func:`repro.core.registry.solve_batch`, which falls back per instance to
the python solver for k != 2 budgets, single-type chain profiles, or any
:class:`~repro.core.errors.InvalidPlatformError` the kernel raises.
See DESIGN.md §12 for the packing layout and fallback rules.
"""

from __future__ import annotations

from .herad_batch import herad_batch
from .pack import ChainPack

__all__ = ["ChainPack", "herad_batch"]
