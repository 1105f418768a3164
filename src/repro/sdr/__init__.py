"""Software-defined radio workload: the DVB-S2 receiver as the paper
evaluates it — the 23-task chain with Table III's profiled latencies
(:func:`dvbs2_chain` and friends) and the frame format that converts a
pipeline period into frames and megabits per second.
"""

from .dvbs2 import (
    DVBS2_TASK_TABLE,
    SLOWEST_REPLICABLE,
    SLOWEST_SEQUENTIAL,
    DvbS2TaskRecord,
    dvbs2_chain,
    dvbs2_mac_studio_chain,
    dvbs2_x7ti_chain,
)
from .framing import (
    DVBS2_NORMAL_R8_9,
    FrameFormat,
    fps_from_period_us,
    mbps_from_fps,
)

__all__ = [
    "DVBS2_TASK_TABLE",
    "DvbS2TaskRecord",
    "dvbs2_chain",
    "dvbs2_mac_studio_chain",
    "dvbs2_x7ti_chain",
    "SLOWEST_SEQUENTIAL",
    "SLOWEST_REPLICABLE",
    "FrameFormat",
    "DVBS2_NORMAL_R8_9",
    "fps_from_period_us",
    "mbps_from_fps",
]
