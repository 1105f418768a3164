#!/usr/bin/env python3
"""Schedule and "run" the DVB-S2 receiver on both paper platforms.

This is the paper's headline use case: the 23-task DVB-S2 receiver chain
(latencies profiled in Table III) scheduled on the Mac Studio (16 P + 4 E
cores, interframe 4) and the X7 Ti (6 P + 8 E cores, interframe 8).  For
each configuration the script prints every strategy's pipeline
decomposition, the expected throughput, and the throughput measured on the
StreamPU-like discrete-event runtime with the calibrated overhead model —
a miniature Table II.

Run:  python examples/dvbs2_receiver.py
"""

from __future__ import annotations

from repro.core.registry import PAPER_ORDER, get_info, get_strategy
from repro.platform import REAL_CONFIGURATIONS
from repro.sdr import DVBS2_NORMAL_R8_9, dvbs2_chain, fps_from_period_us
from repro.streampu import CalibratedOverhead, PipelineSpec, simulate_pipeline


def main() -> None:
    overhead = CalibratedOverhead()
    for platform, resources in REAL_CONFIGURATIONS:
        chain = dvbs2_chain(platform)
        print(f"=== {platform.name}, R={resources} "
              f"(interframe {platform.interframe}) ===")
        for name in PAPER_ORDER:
            outcome = get_strategy(name)(chain, resources)
            spec = PipelineSpec.from_solution(outcome.solution, chain)
            sim = simulate_pipeline(spec, num_frames=1500, overhead=overhead)

            sim_fps = fps_from_period_us(outcome.period, platform.interframe)
            real_fps = sim.report.fps(interframe=platform.interframe)
            sim_mbps = sim_fps * DVBS2_NORMAL_R8_9.info_bits / 1e6
            real_mbps = real_fps * DVBS2_NORMAL_R8_9.info_bits / 1e6

            print(f"  {get_info(name).display_name:<10} "
                  f"period={outcome.period:8.1f} us  "
                  f"expected={sim_mbps:5.1f} Mb/s  "
                  f"measured={real_mbps:5.1f} Mb/s")
            print(f"  {'':<10} {outcome.solution.render()}")
        print()


if __name__ == "__main__":
    main()
