"""Dynamic per-task scheduling baseline (related-work comparator).

The paper argues (Section II) that dynamic schedulers — GNU Radio's
thread-per-block model, CEDR-style runtime dispatch — carry overheads that
static pipeline decompositions avoid at SDR task granularities (tens to
thousands of microseconds).  This module makes that comparison concrete: an
event-driven simulator of a *dynamic list scheduler* that dispatches each
(frame, task) work item to a free core at runtime:

* tasks of one frame run in chain order;
* a sequential (stateful) task additionally serializes across frames
  (frame ``f`` may only run it after frame ``f - 1`` did);
* every dispatch pays ``dispatch_overhead`` (queue locking, scheduler
  bookkeeping) — the knob that turns "more flexible than any static
  pipeline" into "slower in practice";
* core selection prefers the core type that runs the task faster among the
  currently idle cores (a HEFT-flavoured earliest-finish heuristic).

With zero overhead the dynamic scheduler is at least as flexible as any
interval mapping; sweeping the overhead shows the crossover where static
schedules win — see ``repro ablation`` and
``tests/streampu/test_dynamic.py::TestOverheadCrossover``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chain_stats import ChainProfile, profile_of
from ..core.errors import InvalidPlatformError
from ..core.task import TaskChain
from ..core.types import CoreType, Resources
from ..sim.events import EventQueue
from .metrics import steady_state_period

__all__ = ["DynamicScheduleResult", "simulate_dynamic_scheduler"]


@dataclass(frozen=True)
class DynamicScheduleResult:
    """Outcome of a dynamic-scheduling simulation.

    Attributes:
        completion_times: per-frame completion time.
        measured_period: steady-state inter-completion gap.
        makespan: completion time of the last frame.
        dispatches: number of work items executed.
        busy_fraction: average core utilization over the makespan.
    """

    completion_times: np.ndarray
    measured_period: float
    makespan: float
    dispatches: int
    busy_fraction: float


def simulate_dynamic_scheduler(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    num_frames: int = 500,
    dispatch_overhead: float = 0.0,
    window: int = 64,
    warmup_fraction: float = 0.25,
) -> DynamicScheduleResult:
    """Simulate dynamic per-task scheduling of a streaming task chain.

    Args:
        chain: the task chain (or its profile).
        resources: core pool ``(b, l)``.
        num_frames: frames streamed.
        dispatch_overhead: per-work-item runtime cost, in weight units.
        window: frames admitted concurrently (in-flight bound, akin to the
            adaptor capacity of the static pipeline).
        warmup_fraction: fraction excluded from the period estimate.

    Returns:
        The simulation outcome.

    Raises:
        InvalidPlatformError: for an empty core pool.
    """
    profile = profile_of(chain)
    if resources.total <= 0:
        raise InvalidPlatformError("need at least one core")
    if num_frames < 2:
        raise ValueError("need at least 2 frames")
    if window < 1:
        raise ValueError("window must be >= 1")
    if dispatch_overhead < 0:
        raise ValueError("dispatch_overhead must be non-negative")

    n = profile.n
    weights = {
        CoreType.BIG: profile.weights(CoreType.BIG),
        CoreType.LITTLE: profile.weights(CoreType.LITTLE),
    }
    replicable = [task.replicable for task in profile.chain.tasks]

    # Core pool: an idle set plus a busy queue of in-flight work items
    # keyed by completion time (the shared deterministic event core from
    # ``repro.sim``; the ``(core, frame, task)`` tiebreak reproduces the
    # legacy heap order exactly).
    core_types = [CoreType.BIG] * resources.big + [CoreType.LITTLE] * resources.little
    idle: set[int] = set(range(len(core_types)))
    busy: "EventQueue[tuple[int, int, int]]" = EventQueue()

    # done_task[t]: last frame index whose task t completed; task_done[f][t]
    # is tracked implicitly with per-frame progress pointers.
    progress = np.zeros(num_frames, dtype=np.int64)  # next task per frame
    frame_ready_time = np.zeros(num_frames, dtype=np.float64)
    seq_free_time = np.zeros(n, dtype=np.float64)  # stateful-task serialization
    seq_next_frame = np.zeros(n, dtype=np.int64)  # enforces frame order
    completion = np.full(num_frames, np.inf)

    admitted = min(window, num_frames)
    now = 0.0
    dispatches = 0
    busy_time = 0.0

    def ready_items() -> "list[tuple[float, int, int]]":
        items = []
        for f in range(admitted):
            t = int(progress[f])
            if t >= n or completion[f] < np.inf:
                continue
            ready_at = frame_ready_time[f]
            if not replicable[t]:
                if int(seq_next_frame[t]) != f:
                    continue  # an earlier frame has not run this task yet
                ready_at = max(ready_at, seq_free_time[t])
            if ready_at <= now + 1e-12:
                items.append((ready_at, f, t))
        # Earliest frame first, then chain order: streaming FIFO priority.
        items.sort(key=lambda item: (item[1], item[2]))
        return items

    while np.isinf(completion).any():
        # Dispatch everything currently possible.
        progressed = True
        while progressed and idle:
            progressed = False
            for _, f, t in ready_items():
                if not idle:
                    break
                # Earliest-finish core choice among idle cores.
                best_core = None
                best_finish = None
                for core in idle:
                    duration = (
                        weights[core_types[core]][t] + dispatch_overhead
                    )
                    finish = now + duration
                    if best_finish is None or finish < best_finish:
                        best_core, best_finish = core, finish
                idle.remove(best_core)
                busy.push(
                    best_finish,
                    (best_core, f, t),
                    tiebreak=(best_core, f, t),
                )
                busy_time += best_finish - now
                dispatches += 1
                progressed = True
                # Mark the item in flight: bump pointers now so it is not
                # re-dispatched; its effects land at completion.
                progress[f] += 1
                frame_ready_time[f] = np.inf  # until completion
                if not replicable[t]:
                    seq_free_time[t] = np.inf
                    seq_next_frame[t] = f + 1

        if not busy:
            raise RuntimeError("dynamic scheduler deadlocked (internal bug)")

        # Advance to the next completion.
        now, (core, f, t) = busy.pop()
        idle.add(core)
        frame_ready_time[f] = now
        if not replicable[t]:
            seq_free_time[t] = now
        if progress[f] == n:
            completion[f] = now
            if admitted < num_frames:
                frame_ready_time[admitted] = now
                admitted += 1

    order = np.sort(completion)
    period = steady_state_period(order, warmup_fraction)
    makespan = float(order[-1])
    return DynamicScheduleResult(
        completion_times=order,
        measured_period=period,
        makespan=makespan,
        dispatches=dispatches,
        busy_fraction=float(busy_time / (makespan * len(core_types))),
    )
