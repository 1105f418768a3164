"""Memoization cache for scheduling-instance results.

A scheduling *instance* is fully determined by the chain's content
(weights + replicability — captured by
:attr:`repro.core.task.TaskChain.fingerprint`), the platform budget, and the
strategy.  Every strategy in the registry is a pure function of exactly that
data, so its ``(period, core usage)`` outcome can be cached and replayed
bitwise-identically.

The cache pays off whenever campaigns repeat instances: the figure drivers
re-run the Table I campaign verbatim (Fig. 1 uses the same nine scenarios),
ablations re-schedule the same populations, and ``repro all`` chains several
such drivers in one process.  With the cache, each distinct instance is
computed once per process.

Eviction is LRU, and the cache holds no lock: the library runs one thread
per process (DESIGN.md §10).  It stores only the scalar outcome triple
(period, big cores, little cores) — a few dozen bytes per instance — not
solutions, so a million entries fit comfortably in memory.  Every
entry is an audited outcome — a solve certified in its worker, or a
journaled row certified on replay (:mod:`repro.engine.checkpoint`) — so a
hit is trusted and not audited again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from ..core.chain_stats import ChainProfile
from ..core.task import TaskChain
from ..core.types import Resources

__all__ = [
    "InstanceResult",
    "MemoKey",
    "MemoStats",
    "MemoCache",
    "make_key",
    "DEFAULT_MAXSIZE",
]

#: Default cache capacity (instances); ~100 full paper campaigns.
DEFAULT_MAXSIZE: int = 500_000


class InstanceResult(NamedTuple):
    """The campaign-relevant outcome of one scheduling instance.

    ``extra_used`` carries per-type usage for type indices >= 2 on k-type
    platforms; it stays empty on the paper's two-type instances, so existing
    three-field constructions and comparisons are unaffected.
    """

    period: float
    big_used: int
    little_used: int
    extra_used: tuple[int, ...] = ()

    @property
    def usage(self) -> tuple[int, ...]:
        """Per-type usage vector, performant to efficient."""
        return (self.big_used, self.little_used, *self.extra_used)


#: ``(chain fingerprint, per-type budget counts, strategy name)``.
#:
#: The budget enters as the *full* counts tuple — the platform's type
#: signature — so a k-type budget whose first two counts match a two-type
#: one (e.g. ``(10, 10, 4)`` vs ``(10, 10)``) can never collide.
MemoKey = tuple[str, tuple[int, ...], str]


def make_key(
    chain: "TaskChain | ChainProfile", resources: Resources, strategy: str
) -> MemoKey:
    """Build the memo key of one scheduling instance.

    ``strategy`` must already be a canonical registry name (the engine
    resolves aliases before keying).
    """
    return (chain.fingerprint, resources.counts, strategy)


@dataclass(frozen=True, slots=True)
class MemoStats:
    """Cache counters snapshot.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that required a solve.
        size: entries currently stored.
        maxsize: capacity before LRU eviction.
        evictions: entries dropped to respect ``maxsize``.
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MemoCache:
    """A bounded LRU cache of :class:`InstanceResult`.

    One instance is shared by the default campaign engine for the whole
    process; independent engines can carry private caches (or none).  It is
    not for sharing across threads: the library runs one thread per
    process (DESIGN.md §10).
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[MemoKey, InstanceResult] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: MemoKey) -> InstanceResult | None:
        """Return the cached result, or None (counted as a miss)."""
        result = self._data.get(key)
        if result is None:
            self._misses += 1
            return None
        self._data.move_to_end(key)
        self._hits += 1
        return result

    def get_many(self, keys: "Sequence[MemoKey]") -> "list[InstanceResult | None]":
        """Bulk lookup: one call per work unit instead of one per instance.

        Returns one entry per key, in order, with ``None`` for misses.  The
        hit/miss counters and LRU recency update exactly as the equivalent
        sequence of :meth:`get` calls would — bulk lookups are an overhead
        optimization, never a semantic change
        (``tests/engine/test_memo.py``).
        """
        results: list[InstanceResult | None] = []
        for key in keys:
            result = self._data.get(key)
            if result is None:
                self._misses += 1
            else:
                self._data.move_to_end(key)
                self._hits += 1
            results.append(result)
        return results

    def put(self, key: MemoKey, result: InstanceResult) -> None:
        """Insert (or refresh) one result, evicting LRU entries if full."""
        self._data[key] = result
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def put_many(
        self, items: "Iterable[tuple[MemoKey, InstanceResult]]"
    ) -> None:
        """Bulk insert: one call per work unit instead of one per instance.

        Equivalent to :meth:`put` per item: every inserted key becomes
        most-recently-used in iteration order and LRU eviction respects
        ``maxsize`` (deferring eviction to the end of the batch drops the
        same entries as evicting after each insert, since fresh inserts are
        always at the MRU end).
        """
        for key, result in items:
            self._data[key] = result
            self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._data.clear()

    @property
    def stats(self) -> MemoStats:
        """A snapshot of the cache counters."""
        return MemoStats(
            hits=self._hits,
            misses=self._misses,
            size=len(self._data),
            maxsize=self.maxsize,
            evictions=self._evictions,
        )
