"""repro — scheduling partially-replicable task chains on two core types.

A complete, self-contained reproduction of *"Scheduling Strategies for
Partially-Replicable Task Chains on Two Types of Resources"* (Orhan et al.,
IPPS 2025): the FERTAC and 2CATAC greedy heuristics, the optimal HeRAD
dynamic program, the OTAC homogeneous baseline, a discrete-event model of
StreamPU's pipelined streaming runtime, the DVB-S2
receiver workload, and the full experimental campaign of the paper.

Quickstart::

    from repro.core.herad import herad
    from repro.core.task import TaskChain
    from repro.core.types import Resources

    chain = TaskChain.from_weights(
        weights_big=[4, 10, 3, 7],
        weights_little=[9, 21, 8, 15],
        replicable=[True, True, False, True],
    )
    outcome = herad(chain, Resources(big=2, little=2))
    print(outcome.solution.render(), outcome.period)

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the paper
mapping.
"""

__version__ = "1.0.0"
