#!/usr/bin/env python3
"""Visualize a pipelined execution and the period/power tradeoff.

Two visual tools on top of the DVB-S2 receiver:

1. an ASCII **Gantt chart** of the simulated pipeline fill — watch the
   frames ripple through the stages and the replicated stages overlap;
2. the **period/power Pareto front** over core budgets, using the power
   model from the paper's future-work direction (3:1 big:little draw).

Run:  python examples/pipeline_visualization.py
"""

from __future__ import annotations

from repro.analysis.gantt import render_gantt
from repro.core.herad import herad
from repro.core.power import PowerModel, pareto_front
from repro.core.types import Resources
from repro.sdr import dvbs2_mac_studio_chain
from repro.streampu import PipelineSpec, simulate_pipeline


def main() -> None:
    chain = dvbs2_mac_studio_chain()

    # --- Gantt of the half-Mac-Studio optimal schedule -------------------
    outcome = herad(chain, Resources(8, 2))
    print("Schedule:", outcome.solution.render(),
          f" period={outcome.period:.1f} us")
    spec = PipelineSpec.from_solution(outcome.solution, chain)
    sim = simulate_pipeline(spec, num_frames=64)
    print()
    print(render_gantt(sim, max_frames=10))
    print()

    # --- Period/power Pareto front over budgets --------------------------
    model = PowerModel(big_active=3.0, little_active=1.0)
    candidates = []
    for big, little in [(2, 0), (4, 0), (8, 0), (2, 2), (4, 4), (8, 2),
                        (0, 4), (16, 4)]:
        solution = herad(chain, Resources(big, little)).solution
        candidates.append((f"({big}B,{little}L)", solution))

    front = pareto_front(candidates, chain, model)
    print("Period/power Pareto front over core budgets "
          "(3:1 big:little active draw):")
    print(f"{'budget':>10} {'period (us)':>12} {'power':>7} {'busy':>6}")
    for label, report in front:
        print(f"{label:>10} {report.period:12.1f} {report.power:7.2f} "
              f"{report.busy_fraction * 100:5.1f}%")
    print()
    print("Budgets off the front are dominated: another budget is at least")
    print("as fast and draws no more power.")


if __name__ == "__main__":
    main()
