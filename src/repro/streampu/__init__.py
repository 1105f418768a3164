"""StreamPU-like pipelined streaming runtime (simulated and threaded).

The paper executes its schedules with StreamPU, a C++ DSEL/runtime for
software-defined radio.  This package provides the equivalent substrate in
Python:

* :class:`PipelineSpec` — an executable pipeline built from a schedule;
* :func:`simulate_pipeline` — exact discrete-event simulation with bounded
  in-order adaptors, replica round-robin, and pluggable overhead models;
* :class:`PipelineRuntime` — a real threaded runtime streaming frames
  through worker threads and ordered channels;
* overhead models reproducing the paper's expected-vs-real throughput gaps.
"""

from .channels import ChannelClosedError, Frame, OrderedChannel
from .dynamic import DynamicScheduleResult, simulate_dynamic_scheduler
from .metrics import ThroughputReport, steady_state_period
from .module import (
    CallableTask,
    NumpyKernelTask,
    SyntheticSleepTask,
    TaskExecutor,
    executors_from_weights,
)
from .overheads import (
    CalibratedOverhead,
    ConstantSyncOverhead,
    NoOverhead,
    OverheadModel,
)
from .pipeline import PipelineSpec, PipelineStage
from .placement import (
    Placement,
    PlacementOverhead,
    PhysicalCore,
    compact_placement,
    platform_cores,
    scatter_placement,
)
from .runtime import PipelineRuntime, RuntimeResult, StageGroup
from .simulator import SimulationResult, simulate_pipeline

__all__ = [
    "PipelineSpec",
    "PipelineStage",
    "simulate_pipeline",
    "SimulationResult",
    "PipelineRuntime",
    "RuntimeResult",
    "StageGroup",
    "ThroughputReport",
    "steady_state_period",
    "OverheadModel",
    "NoOverhead",
    "ConstantSyncOverhead",
    "CalibratedOverhead",
    "OrderedChannel",
    "Frame",
    "ChannelClosedError",
    "TaskExecutor",
    "SyntheticSleepTask",
    "NumpyKernelTask",
    "CallableTask",
    "executors_from_weights",
    "simulate_dynamic_scheduler",
    "DynamicScheduleResult",
    "PhysicalCore",
    "platform_cores",
    "Placement",
    "compact_placement",
    "scatter_placement",
    "PlacementOverhead",
]
