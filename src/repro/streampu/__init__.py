"""StreamPU-like pipelined streaming, modelled by discrete-event simulation.

The paper executes its schedules with StreamPU, a C++ DSEL/runtime for
software-defined radio.  This package models that runtime rather than
re-implementing it (Python threads would measure the interpreter, not the
schedule):

* :class:`PipelineSpec` — an executable pipeline built from a schedule;
* :func:`simulate_pipeline` — exact discrete-event simulation with bounded
  in-order adaptors, replica round-robin, and pluggable overhead models;
* overhead models reproducing the paper's expected-vs-real throughput gaps.
"""

from .dynamic import DynamicScheduleResult, simulate_dynamic_scheduler
from .metrics import ThroughputReport, steady_state_period
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
from .simulator import SimulationResult, simulate_pipeline

__all__ = [
    "PipelineSpec",
    "PipelineStage",
    "simulate_pipeline",
    "SimulationResult",
    "ThroughputReport",
    "steady_state_period",
    "OverheadModel",
    "NoOverhead",
    "ConstantSyncOverhead",
    "CalibratedOverhead",
    "simulate_dynamic_scheduler",
    "DynamicScheduleResult",
    "PhysicalCore",
    "platform_cores",
    "Placement",
    "compact_placement",
    "scatter_placement",
    "PlacementOverhead",
]
