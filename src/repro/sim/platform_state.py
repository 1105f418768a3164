"""Platform state machine: which cores are up, over simulated time.

The simulator's platform is the paper's ``k``-type budget with a failure
overlay: per type, some cores are *down*.  :class:`PlatformState` applies
``core_failure`` / ``core_recovery`` events (clamped — failing more cores
than remain up takes down what is left, recovering more than are down
restores what is down), exposes the currently *available* budget as a
:class:`~repro.core.types.Resources`, and keeps an exact per-core down
timeline for the Chrome-trace export.

Concrete core identities are deterministic by convention: cores of type
``v`` are numbered ``0 .. total_v - 1``; failures take the highest-numbered
up core first and recoveries bring back the lowest-numbered down core
first.  The convention is arbitrary but fixed — two runs of the same trace
produce identical timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.errors import InvalidParameterError
from ..core.types import Resources

__all__ = ["DownInterval", "PlatformState"]


@dataclass(frozen=True, slots=True)
class DownInterval:
    """One contiguous down period of one concrete core.

    Attributes:
        core_type: the core's platform type index.
        core_index: the core's number within its type.
        start: simulated time the core went down.
        end: simulated time it came back (``inf`` while still down).
    """

    core_type: int
    core_index: int
    start: float
    end: float


class PlatformState:
    """Mutable per-type availability derived from a failure event stream."""

    __slots__ = ("_total", "_down", "_open", "_closed", "_clamped", "_available")

    def __init__(self, counts: "Sequence[int] | Iterable[int]") -> None:
        total = tuple(int(c) for c in counts)
        if not total or any(c < 0 for c in total) or sum(total) < 1:
            raise InvalidParameterError(f"invalid platform counts {total}")
        self._total = total
        # Down cores per type, as a sorted list of concrete core numbers.
        self._down: "list[list[int]]" = [[] for _ in total]
        # Open down intervals: (type, core) -> start time.
        self._open: "dict[tuple[int, int], float]" = {}
        self._closed: "list[DownInterval]" = []
        self._clamped: int = 0
        # What is up changes only in fail / recover; every read is this value.
        self._available = Resources.from_counts(total)

    # -- event application ---------------------------------------------------

    def fail(self, core_type: int, cores: int, time: float) -> int:
        """Take ``cores`` cores of ``core_type`` down; returns how many
        actually went down (clamped to the cores still up)."""
        self._check_type(core_type)
        down = self._down[core_type]
        down_now = set(down)
        up = [c for c in range(self._total[core_type]) if c not in down_now]
        victims = up[-cores:] if cores < len(up) else up
        if len(victims) < cores:
            self._clamped += 1
        for core in sorted(victims, reverse=True):
            down.append(core)
            self._open[(core_type, core)] = time
        down.sort()
        self._refresh()
        return len(victims)

    def recover(self, core_type: int, cores: int, time: float) -> int:
        """Bring ``cores`` cores of ``core_type`` back; returns how many
        actually came back (clamped to the cores currently down)."""
        self._check_type(core_type)
        down = self._down[core_type]
        revived = down[:cores]
        if len(revived) < cores:
            self._clamped += 1
        for core in revived:
            start = self._open.pop((core_type, core))
            self._closed.append(
                DownInterval(core_type, core, start, time)
            )
        del down[: len(revived)]
        self._refresh()
        return len(revived)

    def _refresh(self) -> None:
        self._available = Resources.from_counts(
            total - len(down) for total, down in zip(self._total, self._down)
        )

    def _check_type(self, core_type: int) -> None:
        if not (0 <= core_type < len(self._total)):
            raise InvalidParameterError(
                f"core_type {core_type} outside the platform's "
                f"{len(self._total)} types"
            )

    # -- observation ---------------------------------------------------------

    @property
    def total(self) -> "tuple[int, ...]":
        """Healthy per-type core counts."""
        return self._total

    @property
    def clamp_events(self) -> int:
        """How many fail/recover calls were clamped (over-specified)."""
        return self._clamped

    def available_counts(self) -> "tuple[int, ...]":
        """Per-type count of cores currently up."""
        return self._available.counts

    def available(self) -> Resources:
        """The currently available budget (possibly all-zero)."""
        return self._available

    def availability(self) -> float:
        """Fraction of all cores currently up, in ``[0, 1]``."""
        return float(sum(self.available_counts())) / float(sum(self._total))

    def is_up(self, core_type: int, core_index: int) -> bool:
        """Whether one concrete core is currently up."""
        self._check_type(core_type)
        return core_index not in self._down[core_type]

    def down_intervals(self, end_time: float) -> "tuple[DownInterval, ...]":
        """Every down interval so far, open ones truncated at ``end_time``.

        Sorted by ``(core_type, core_index, start)`` — a deterministic,
        render-ready timeline for the per-core Chrome-trace lanes.
        """
        intervals = list(self._closed)
        for (core_type, core), start in self._open.items():
            intervals.append(DownInterval(core_type, core, start, end_time))
        intervals.sort(
            key=lambda d: (d.core_type, d.core_index, d.start, d.end)
        )
        return tuple(intervals)
