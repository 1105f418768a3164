"""Pipeline construction: from a schedule to an executable pipeline spec.

A :class:`PipelineSpec` is the runtime-facing view of a
:class:`~repro.core.solution.Solution`: an ordered list of
:class:`PipelineStage` entries carrying the per-frame latency of each stage
(the sum of its tasks' latencies on its core type), the replica count, and
bookkeeping.  The discrete-event simulators consume this structure —
mirroring how StreamPU instantiates a pipeline from a sequence
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.chain_stats import ChainProfile, profile_of
from ..core.errors import InvalidChainError
from ..core.solution import Solution
from ..core.task import TaskChain
from ..core.types import CoreType

__all__ = ["PipelineStage", "PipelineSpec"]


@dataclass(frozen=True, slots=True)
class PipelineStage:
    """One executable stage of the pipeline.

    Attributes:
        index: position in the pipeline.
        start: first task index (inclusive).
        end: last task index (inclusive).
        replicas: number of replica workers (cores) of the stage.
        core_type: core type the stage runs on.
        latency: single-frame processing time of one replica (sum of the
            stage's task weights on ``core_type``).
        replicable: whether the stage is stateless.
    """

    index: int
    start: int
    end: int
    replicas: int
    core_type: CoreType
    latency: float
    replicable: bool

    @property
    def weight(self) -> float:
        """The stage's period contribution ``latency / replicas`` (Eq. (1))."""
        if self.replicable:
            return self.latency / self.replicas
        return self.latency


@dataclass(frozen=True)
class PipelineSpec:
    """An executable pipeline derived from a schedule.

    Attributes:
        stages: the pipeline stages in order.
        queue_capacity: bounded inter-stage buffer size (frames), as in
            StreamPU's adaptors.
    """

    stages: tuple[PipelineStage, ...]
    queue_capacity: int = 16

    def __post_init__(self) -> None:
        if not self.stages:
            raise InvalidChainError("a pipeline needs at least one stage")
        if self.queue_capacity < 1:
            raise InvalidChainError("queue capacity must be >= 1")

    @classmethod
    def from_solution(
        cls,
        solution: Solution,
        chain: "TaskChain | ChainProfile",
        queue_capacity: int = 16,
    ) -> "PipelineSpec":
        """Build the pipeline for a schedule.

        Args:
            solution: a valid, chain-covering schedule.
            chain: the scheduled chain (or its profile).
            queue_capacity: inter-stage buffer capacity in frames.

        Raises:
            InvalidChainError: if the solution is empty or does not cover
                the chain.
        """
        profile = profile_of(chain)
        if solution.is_empty or not solution.covers(profile):
            raise InvalidChainError(
                "cannot build a pipeline from an empty or partial solution"
            )
        stages = tuple(
            PipelineStage(
                index=i,
                start=s.start,
                end=s.end,
                replicas=s.cores,
                core_type=s.core_type,
                latency=s.latency(profile),
                replicable=s.is_replicable(profile),
            )
            for i, s in enumerate(solution)
        )
        return cls(stages=stages, queue_capacity=queue_capacity)

    @property
    def num_stages(self) -> int:
        """Pipeline depth."""
        return len(self.stages)

    @property
    def analytic_period(self) -> float:
        """The model's steady-state period: the maximum stage weight."""
        return max(stage.weight for stage in self.stages)

    @property
    def total_cores(self) -> int:
        """Total replica workers across stages."""
        return sum(stage.replicas for stage in self.stages)

    def describe(self) -> str:
        """Multi-line human-readable pipeline description."""
        lines = [
            f"Pipeline with {self.num_stages} stage(s), "
            f"queue capacity {self.queue_capacity}:"
        ]
        for s in self.stages:
            kind = "rep" if s.replicable else "seq"
            lines.append(
                f"  stage {s.index}: tasks [{s.start}..{s.end}] ({kind}) "
                f"x{s.replicas} {s.core_type.name:<6} latency={s.latency:.6g} "
                f"weight={s.weight:.6g}"
            )
        lines.append(f"  analytic period = {self.analytic_period:.6g}")
        return "\n".join(lines)
