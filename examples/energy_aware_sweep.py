#!/usr/bin/env python3
"""Energy-aware scheduling: the little-core usage tradeoff.

The paper's secondary objective is a power proxy: *use as many little cores
as necessary* (and no more big cores than needed) to hit the minimal period.
This example sweeps platform budgets on a synthetic chain and shows:

1. how the optimal period improves as cores are added (throughput scaling);
2. how HeRAD shifts work onto little cores whenever that does not hurt the
   period — compared against FERTAC, which sometimes overspends cores;
3. a simple power estimate (relative units) assuming big cores cost 3x a
   little core, illustrating the big-for-little exchange.

Run:  python examples/energy_aware_sweep.py
"""

from __future__ import annotations

import numpy as np

from repro.core.fertac import fertac
from repro.core.herad import herad
from repro.core.types import CoreType, Resources
from repro.workloads import random_chain
from repro.workloads.synthetic import GeneratorConfig

#: Relative power cost of one busy core (big cores burn ~3x a little core).
POWER_BIG, POWER_LITTLE = 3.0, 1.0


def power_estimate(big_used: int, little_used: int) -> float:
    """A toy power model: cost proportional to the cores kept busy."""
    return POWER_BIG * big_used + POWER_LITTLE * little_used


def main() -> None:
    rng = np.random.default_rng(2024)
    chain = random_chain(
        rng, GeneratorConfig(num_tasks=16, stateless_ratio=0.6)
    )
    print(f"Chain: 16 tasks, SR=0.6, "
          f"total w^B={chain.total_weight(CoreType.BIG):.0f}")
    print()
    header = (f"{'R=(b,l)':>10} | {'P(HeRAD)':>9} {'cores':>7} {'power':>6} | "
              f"{'P(FERTAC)':>9} {'cores':>7} {'power':>6}")
    print(header)
    print("-" * len(header))

    for big, little in [(1, 1), (2, 2), (2, 6), (4, 4), (6, 2), (8, 8)]:
        resources = Resources(big, little)
        h = herad(chain, resources)
        f = fertac(chain, resources)
        hu, fu = h.solution.core_usage(), f.solution.core_usage()
        print(
            f"{str(resources):>10} | "
            f"{h.period:9.2f} {f'{hu.big}B+{hu.little}L':>7} "
            f"{power_estimate(hu.big, hu.little):6.1f} | "
            f"{f.period:9.2f} {f'{fu.big}B+{fu.little}L':>7} "
            f"{power_estimate(fu.big, fu.little):6.1f}"
        )

    print()
    print("HeRAD hits the minimal period with the cheapest big/little mix;")
    print("FERTAC is near-optimal in period but tends to spend extra cores")
    print("(the paper's Fig. 2 quantifies this at scale).")


if __name__ == "__main__":
    main()
