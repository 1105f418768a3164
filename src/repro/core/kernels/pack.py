"""Packing a batch of chain profiles into padded ndarray planes.

The batch kernel amortizes numpy dispatch overhead by carrying *every*
instance of a work unit through each array operation at once.  To do that,
per-chain vectors of different lengths are packed into rectangular planes
with a leading batch axis:

* ``prefix[v]`` — per-type weight prefix sums, shape ``(B, n + 1)`` where
  ``n`` is the longest chain's task count.  Rows of shorter chains are
  padded by **repeating the final prefix value**, which keeps every row
  non-decreasing (binary-search style ``count(p <= limit)`` packing stays
  correct: padding can only inflate a count that per-instance clipping with
  ``ns`` caps anyway).
* ``next_seq`` — the "next sequential task" index vectors, shape
  ``(B, n + 1)``, padded with the instance's own ``n`` (i.e. "no sequential
  task at or after a padded position").
* ``ns`` — the per-instance task counts that clip padded garbage out of
  the results.

The convention downstream (DESIGN.md §12): values computed for padded cells
are *garbage but finite* — a kernel must never read them into a real
instance's result, and never let them produce an index error, a NaN, or a
runtime warning.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..chain_stats import ChainProfile
from ..errors import InvalidChainError, InvalidPlatformError

__all__ = ["ChainPack"]


class ChainPack:
    """A batch of :class:`ChainProfile` s packed into padded planes.

    Attributes:
        profiles: the packed profiles, in batch order.
        size: the batch size ``B``.
        n: the padded task-count ``max_i n_i``.
        ns: per-instance task counts, shape ``(B,)``, ``int64``.
        prefix: two weight-prefix planes (big, little), each ``(B, n + 1)``.
        next_seq: next-sequential-task planes, ``(B, n + 1)``, ``int64``.

    Raises:
        InvalidChainError: on an empty batch.
        InvalidPlatformError: when a profile lacks little-core weights.
    """

    __slots__ = ("profiles", "size", "n", "ns", "prefix", "next_seq")

    def __init__(self, profiles: Sequence[ChainProfile]) -> None:
        if not profiles:
            raise InvalidChainError("cannot pack an empty batch of profiles")
        for profile in profiles:
            if profile.ktype < 2:
                raise InvalidPlatformError(
                    "the k=2 batch kernel needs big and little weights; a "
                    f"profiled chain carries only {profile.ktype} type(s)"
                )
        self.profiles: tuple[ChainProfile, ...] = tuple(profiles)
        self.size: int = len(self.profiles)
        self.ns: np.ndarray = np.array(
            [p.n for p in self.profiles], dtype=np.int64
        )
        self.n: int = int(self.ns.max())

        planes = []
        for v in (0, 1):
            plane = np.empty((self.size, self.n + 1), dtype=np.float64)
            for i, profile in enumerate(self.profiles):
                row = profile.prefix[v]
                plane[i, : row.size] = row
                plane[i, row.size :] = row[-1]
            planes.append(plane)
        self.prefix: tuple[np.ndarray, np.ndarray] = (planes[0], planes[1])

        nxt = np.empty((self.size, self.n + 1), dtype=np.int64)
        for i, profile in enumerate(self.profiles):
            row = profile.next_sequential
            nxt[i, : row.size] = row
            nxt[i, row.size :] = profile.n
        self.next_seq: np.ndarray = nxt

