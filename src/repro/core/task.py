"""Task and task-chain models.

The workflow scheduled by the paper is a linear chain of ``n`` tasks
``T = {tau_1, ..., tau_n}`` where ``tau_i`` can only execute after
``tau_{i-1}``.  Tasks are partitioned into *replicable* (stateless) tasks and
*sequential* (stateful) tasks; sequential tasks cannot be replicated because
duplicating their internal state produces wrong results.

Each task ``tau_i`` carries one computation weight (latency) per core type:
``w_i^B`` on big cores and ``w_i^L`` on little cores.  On a ``k``-type
platform (see :mod:`repro.core.types`) a task additionally carries one
weight per extra type index ``2..k-1``; the two-type constructors and the
fingerprint byte stream are unchanged for ``k = 2`` chains.

Indexing convention
-------------------
The paper uses 1-based task indices.  The public Python API is 0-based
throughout: a chain of ``n`` tasks has task indices ``0..n-1`` and a stage is
a half-open pair is *not* used — stages are inclusive ``[start, end]`` index
pairs, matching the paper's ``[tau_c, tau_e]`` notation.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import InvalidChainError
from .types import CoreIndex, core_types

__all__ = ["Task", "TaskChain"]


@dataclass(frozen=True, slots=True)
class Task:
    """A single task of the chain.

    Attributes:
        name: human-readable identifier (purely informational).
        weight_big: computation weight (latency) on a big core, ``w^B > 0``.
        weight_little: computation weight on a little core, ``w^L > 0``.
        replicable: True for stateless tasks (members of ``T_rep``), False
            for stateful/sequential tasks (members of ``T_seq``).
        extra_weights: weights on the extra core types ``2..k-1`` of a
            ``k > 2`` platform, in type-index order; empty for the paper's
            two-type chains.
    """

    name: str
    weight_big: float
    weight_little: float
    replicable: bool
    extra_weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # One chained comparison per weight accepts a valid task (0,
        # negatives, NaN and both infinities all fail it); only a rejected
        # task walks the labelled weights to name the offending one.
        extra = self.extra_weights
        if (
            0.0 < self.weight_big < math.inf
            and 0.0 < self.weight_little < math.inf
            and (not extra or all(0.0 < w < math.inf for w in extra))
        ):
            return
        labeled = (
            ("big", self.weight_big),
            ("little", self.weight_little),
            *((f"type{v + 2}", w) for v, w in enumerate(self.extra_weights)),
        )
        for label, w in labeled:
            if not math.isfinite(w) or w <= 0:
                raise InvalidChainError(
                    f"task {self.name!r}: weight on {label} cores must be a "
                    f"finite positive number, got {w!r}"
                )

    @property
    def ktype(self) -> int:
        """Number of core types this task carries a weight for."""
        return 2 + len(self.extra_weights)

    def weight(self, core_type: CoreIndex) -> float:
        """Weight of this task on the given core type."""
        index = int(core_type)
        if index == 0:
            return self.weight_big
        if index == 1:
            return self.weight_little
        return self.extra_weights[index - 2]

    @property
    def sequential(self) -> bool:
        """True for stateful tasks (the complement of :attr:`replicable`)."""
        return not self.replicable


@dataclass(frozen=True)
class TaskChain:
    """An ordered, immutable chain of tasks.

    Construct directly from a sequence of :class:`Task` objects, or use the
    :meth:`from_weights` convenience constructor.

    Attributes:
        tasks: the tasks in chain order.
        name: optional label for reports.
    """

    tasks: tuple[Task, ...]
    name: str = field(default="chain", compare=False)

    def __init__(self, tasks: Iterable[Task], name: str = "chain") -> None:
        tasks = tuple(tasks)
        if not tasks:
            raise InvalidChainError("a task chain must contain at least one task")
        extra = {len(t.extra_weights) for t in tasks}
        if len(extra) > 1:
            raise InvalidChainError(
                "all tasks of a chain must carry weights for the same number "
                f"of core types; got {sorted(2 + k for k in extra)}"
            )
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "name", name)

    @classmethod
    def from_weights(
        cls,
        weights_big: Sequence[float],
        weights_little: Sequence[float],
        replicable: Sequence[bool],
        name: str = "chain",
    ) -> "TaskChain":
        """Build a chain from parallel sequences of per-type weights.

        Args:
            weights_big: ``w_i^B`` for each task.
            weights_little: ``w_i^L`` for each task.
            replicable: replicability flag for each task.
            name: optional chain label.

        Raises:
            InvalidChainError: if the sequences have mismatched lengths or
                contain non-positive weights.
        """
        if not (len(weights_big) == len(weights_little) == len(replicable)):
            raise InvalidChainError(
                "weights_big, weights_little and replicable must have the "
                f"same length; got {len(weights_big)}, {len(weights_little)},"
                f" {len(replicable)}"
            )
        tasks = tuple(
            Task(
                name=f"tau_{i + 1}",
                weight_big=float(wb),
                weight_little=float(wl),
                replicable=bool(r),
            )
            for i, (wb, wl, r) in enumerate(
                zip(weights_big, weights_little, replicable)
            )
        )
        return cls(tasks, name=name)

    @classmethod
    def from_weight_matrix(
        cls,
        weight_matrix: Sequence[Sequence[float]],
        replicable: Sequence[bool],
        name: str = "chain",
    ) -> "TaskChain":
        """Build a ``k``-type chain from a per-type weight matrix.

        Args:
            weight_matrix: one row per core type (``k`` rows, performant to
                efficient), each holding the ``n`` per-task weights.  A
                two-row matrix is exactly :meth:`from_weights`.
            replicable: replicability flag for each task.
            name: optional chain label.

        Raises:
            InvalidChainError: on ragged rows, fewer than two rows, or a
                length mismatch with ``replicable``.
        """
        rows = [tuple(float(w) for w in row) for row in weight_matrix]
        if len(rows) < 2:
            raise InvalidChainError(
                f"a weight matrix needs >= 2 core-type rows, got {len(rows)}"
            )
        if len({len(row) for row in rows}) > 1 or len(rows[0]) != len(replicable):
            raise InvalidChainError(
                "weight matrix rows and replicable must all have the same "
                f"length; got rows {[len(r) for r in rows]} and "
                f"{len(replicable)} flags"
            )
        tasks = tuple(
            Task(
                name=f"tau_{i + 1}",
                weight_big=rows[0][i],
                weight_little=rows[1][i],
                replicable=bool(replicable[i]),
                extra_weights=tuple(row[i] for row in rows[2:]),
            )
            for i in range(len(rows[0]))
        )
        return cls(tasks, name=name)

    @classmethod
    def homogeneous(
        cls,
        weights: Sequence[float],
        replicable: Sequence[bool],
        slowdown: float = 1.0,
        name: str = "chain",
    ) -> "TaskChain":
        """Build a chain whose little-core weights are a uniform slowdown.

        Args:
            weights: big-core weights.
            replicable: replicability flags.
            slowdown: ``w^L = slowdown * w^B`` for every task.
            name: optional chain label.
        """
        if slowdown <= 0:
            raise InvalidChainError(f"slowdown must be positive, got {slowdown}")
        little = [w * slowdown for w in weights]
        return cls.from_weights(weights, little, replicable, name=name)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]

    # -- derived quantities --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of tasks in the chain (``n`` in the paper)."""
        return len(self.tasks)

    @property
    def ktype(self) -> int:
        """Number of core types this chain carries weights for (``k >= 2``)."""
        return self.tasks[0].ktype

    def types(self) -> tuple[CoreIndex, ...]:
        """Iteration order over this chain's core types (see :func:`core_types`)."""
        return core_types(self.ktype)

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the chain's scheduling-relevant data.

        Hashes the per-task ``(w^B, w^L, replicable)`` triples — nothing
        else.  Two chains with equal weight tables and replicability flags
        share a fingerprint regardless of task or chain *names*; any
        perturbation of a weight or a flag changes it.  Schedules depend on
        exactly this data, so the fingerprint is a sound memoization key for
        ``(chain, resources, strategy) -> outcome`` caches
        (see :mod:`repro.engine.memo`).

        The value is a 32-character hex digest (128-bit BLAKE2b), computed
        once per chain and cached.  For a ``k > 2`` chain the digest also
        covers the platform type signature and every extra-type weight — a
        suffix appended *after* the two-type byte stream, so two-type
        fingerprints are byte-for-byte those of the historical code.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(struct.pack("<q", len(self.tasks)))
            for task in self.tasks:
                digest.update(
                    struct.pack(
                        "<dd?", task.weight_big, task.weight_little, task.replicable
                    )
                )
            if self.ktype > 2:
                digest.update(b"ktype")
                digest.update(struct.pack("<q", self.ktype))
                for task in self.tasks:
                    digest.update(
                        struct.pack(f"<{len(task.extra_weights)}d", *task.extra_weights)
                    )
            cached = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def weights(self, core_type: CoreIndex) -> list[float]:
        """Per-task weights on the given core type, in chain order."""
        # ``Task.weight`` per task, with its type dispatch hoisted out of the
        # loop: profiling an arriving chain reads every row.
        index = int(core_type)
        if index == 0:
            return [t.weight_big for t in self.tasks]
        if index == 1:
            return [t.weight_little for t in self.tasks]
        return [t.extra_weights[index - 2] for t in self.tasks]

    def total_weight(self, core_type: CoreIndex) -> float:
        """Sum of all task weights on the given core type."""
        return sum(t.weight(core_type) for t in self.tasks)

    @property
    def replicable_indices(self) -> list[int]:
        """Indices of the stateless tasks (``T_rep``)."""
        return [i for i, t in enumerate(self.tasks) if t.replicable]

    @property
    def sequential_indices(self) -> list[int]:
        """Indices of the stateful tasks (``T_seq``)."""
        return [i for i, t in enumerate(self.tasks) if t.sequential]

    @property
    def stateless_ratio(self) -> float:
        """Fraction of replicable tasks (the paper's *SR* parameter)."""
        return len(self.replicable_indices) / len(self.tasks)

    def is_fully_replicable(self) -> bool:
        """True when the chain has no sequential task."""
        return all(t.replicable for t in self.tasks)

    def subchain(self, start: int, end: int, name: str | None = None) -> "TaskChain":
        """Return the inclusive sub-chain ``[start, end]`` as a new chain."""
        if not (0 <= start <= end < len(self.tasks)):
            raise InvalidChainError(
                f"invalid subchain bounds [{start}, {end}] for n={len(self.tasks)}"
            )
        return TaskChain(
            self.tasks[start : end + 1],
            name=name or f"{self.name}[{start}:{end}]",
        )

    def describe(self) -> str:
        """Multi-line human-readable description of the chain."""
        lines = [f"TaskChain {self.name!r} with {self.n} tasks:"]
        for i, t in enumerate(self.tasks):
            kind = "rep" if t.replicable else "seq"
            lines.append(
                f"  [{i:>3}] {t.name:<28} {kind}  "
                f"w_B={t.weight_big:<10.4g} w_L={t.weight_little:<10.4g}"
            )
        return "\n".join(lines)
