"""ASCII Gantt rendering of simulated pipeline executions.

Turns a :class:`~repro.streampu.simulator.SimulationResult` into a terminal
timeline: one row per pipeline stage, one column per time bucket, digits
showing which frame a stage is delivering.  Useful for eyeballing pipeline
fill, replication overlap, and bottleneck stalls in examples and docs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotation only: Table I must not import the runtime
    from ..streampu.simulator import SimulationResult

__all__ = ["render_gantt"]


def render_gantt(
    result: SimulationResult,
    max_frames: int = 12,
    width: int = 78,
) -> str:
    """Render the first frames of a simulation as an ASCII timeline.

    Args:
        result: a simulation result.
        max_frames: how many leading frames to display (digits cycle 0-9).
        width: characters available for the time axis.

    Returns:
        A multi-line string; row ``stage i`` marks the bucket where each
        frame *leaves* the stage.
    """
    if max_frames < 1:
        raise ValueError("max_frames must be >= 1")
    finish = result.finish_times[:, :max_frames]
    horizon = float(finish.max())
    if horizon <= 0:
        raise ValueError("simulation produced no positive timestamps")
    scale = (width - 1) / horizon

    lines = [
        f"Gantt — first {finish.shape[1]} frames over "
        f"{horizon:.6g} time units ('3' = frame 3 leaves the stage)"
    ]
    for i, stage in enumerate(result.spec.stages):
        row = [" "] * width
        for f in range(finish.shape[1]):
            col = int(np.floor(finish[i, f] * scale))
            col = min(max(col, 0), width - 1)
            row[col] = str(f % 10)
        label = (
            f"s{i} x{stage.replicas}{stage.core_type.symbol}"
        )
        lines.append(f"{label:>8} |" + "".join(row))
    lines.append(f"{'':>8} +" + "-" * width)
    lines.append(f"{'':>9}0{'':>{width - 12}}{horizon:.6g}")
    return "\n".join(lines)
