#!/usr/bin/env python3
"""Write your own scheduling strategy on top of the library's machinery.

The binary-search ``Schedule`` driver (Algo. 1) is strategy-agnostic: any
``ComputeSolution(profile, resources, period) -> Solution`` callable plugs
in.  This example implements **BIGFIRST**, the mirror image of FERTAC (big
cores first, little as fallback), and compares it against the paper's
strategies — showing why preferring little cores is the better default for
the power proxy, and how easily variants can be probed.

Run:  python examples/custom_strategy.py
"""

from __future__ import annotations

from repro.core.binary_search import schedule_by_binary_search
from repro.core.chain_stats import ChainProfile
from repro.core.packing import compute_stage, stage_fits
from repro.core.registry import PAPER_ORDER, get_info, get_strategy
from repro.core.solution import Solution
from repro.core.stage import Stage
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources


def bigfirst_compute_solution(
    profile: ChainProfile, resources: Resources, period: float
) -> Solution:
    """FERTAC with the core-type preference inverted."""
    last = profile.n - 1
    big, little = resources.big, resources.little
    stages: list[Stage] = []
    start = 0
    while True:
        plan = compute_stage(profile, start, big, CoreType.BIG, period)
        core_type = CoreType.BIG
        if not stage_fits(profile, start, plan, big, core_type, period):
            plan = compute_stage(profile, start, little, CoreType.LITTLE, period)
            core_type = CoreType.LITTLE
            if not stage_fits(profile, start, plan, little, core_type, period):
                return Solution.empty()
        stages.append(Stage(start, plan.end, plan.cores, core_type))
        if plan.end == last:
            return Solution(stages)
        if core_type is CoreType.BIG:
            big -= plan.cores
        else:
            little -= plan.cores
        start = plan.end + 1


def bigfirst(chain, resources):
    """Schedule with BIGFIRST (binary search + the builder above)."""
    return schedule_by_binary_search(
        chain, resources, bigfirst_compute_solution
    )


def main() -> None:
    chain = TaskChain.from_weights(
        weights_big=[60, 35, 110, 20, 45, 150, 25],
        weights_little=[130, 80, 260, 45, 110, 330, 60],
        replicable=[True, False, True, True, False, True, True],
        name="comparison chain",
    )
    resources = Resources(big=3, little=3)

    print(f"{'Strategy':<12} {'period':>8} {'big':>4} {'little':>7}  pipeline")
    print("-" * 76)
    for name in PAPER_ORDER:
        outcome = get_strategy(name)(chain, resources)
        usage = outcome.solution.core_usage()
        print(f"{get_info(name).display_name:<12} {outcome.period:8.1f} "
              f"{usage.big:>4} {usage.little:>7}  {outcome.solution.render()}")

    outcome = bigfirst(chain, resources)
    usage = outcome.solution.core_usage()
    print(f"{'BIGFIRST*':<12} {outcome.period:8.1f} "
          f"{usage.big:>4} {usage.little:>7}  {outcome.solution.render()}")
    print()
    print("* custom strategy defined in this file — note how it hoards big")
    print("  cores early, the exact behaviour FERTAC avoids by preferring")
    print("  efficient cores whenever they can hold the target period.")


if __name__ == "__main__":
    main()
