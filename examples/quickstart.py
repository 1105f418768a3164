#!/usr/bin/env python3
"""Quickstart: schedule a partially-replicable task chain on big/little cores.

Builds a small chain (two stateless stages around a stateful synchronizer,
the typical SDR shape), schedules it with every strategy from the paper, and
prints the resulting pipeline decompositions, periods and core usage.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.registry import PAPER_ORDER, get_info, get_strategy
from repro.core.task import TaskChain
from repro.core.types import Resources


def main() -> None:
    # A task chain is an ordered list of tasks with one weight (latency) per
    # core type.  Stateful tasks (replicable=False) cannot be replicated.
    chain = TaskChain.from_weights(
        weights_big=[40, 25, 90, 10, 120, 30],
        weights_little=[90, 60, 150, 25, 300, 80],
        replicable=[True, True, False, True, True, True],
        name="quickstart chain",
    )
    print(chain.describe())
    print()

    # The platform: 2 big (performance) + 3 little (efficiency) cores.
    resources = Resources(big=2, little=3)
    print(f"Platform budget: {resources}")
    print()

    for name in PAPER_ORDER:
        info = get_info(name)
        outcome = get_strategy(name)(chain, resources)
        usage = outcome.solution.core_usage()
        print(f"{info.display_name:<10}  period={outcome.period:8.2f}  "
              f"throughput={outcome.solution.throughput(chain):.5f}/unit  "
              f"cores={usage.big}B+{usage.little}L")
        print(f"{'':<10}  pipeline: {outcome.solution.render()}")
    print()

    # HeRAD is optimal in period and uses as many little cores as necessary;
    # inspect its schedule in detail.
    best = get_strategy("herad")(chain, resources)
    print(best.solution.describe(chain))


if __name__ == "__main__":
    main()
