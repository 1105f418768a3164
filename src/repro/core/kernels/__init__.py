"""Batch-vectorized solver kernels (what every campaign solves on).

One kernel call solves *many* chains: profiles are packed into padded
ndarray planes (:mod:`.pack`), HeRAD's DP sweeps the whole batch per plane
(:mod:`.herad_batch`), and 2CATAC runs a lockstep batched bisection over a
vectorized state DP (:mod:`.search`, :mod:`.twocatac_batch`).

The kernels are specialized to the paper's two-type platform and promise
**bitwise-identical** outcomes to the pure-python solvers, which remain the
differential oracle (replayed over the full ``tests/data/k2_oracle.json``
fixture through this tier).  Entry is through
:func:`repro.core.registry.solve_batch`, which falls back per instance to
the python solvers for k != 2 budgets, single-type chain profiles, or any
:class:`~repro.core.errors.InvalidPlatformError` a kernel raises.
See DESIGN.md §12 for the packing layout and fallback rules.
"""

from __future__ import annotations

from .herad_batch import herad_batch
from .pack import ChainPack, pack_profiles
from .search import batched_binary_search
from .twocatac_batch import twocatac_batch, twocatac_memo_batch

__all__ = [
    "ChainPack",
    "pack_profiles",
    "batched_binary_search",
    "herad_batch",
    "twocatac_batch",
    "twocatac_memo_batch",
]
