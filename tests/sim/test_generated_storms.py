"""Generated storms: the simulator's invariants over drawn event sequences.

Three fixed trace kinds exercise the ladder on the shapes their authors
thought of; this draws the shape — arrivals above and below capacity, names
that depart and come back, mutations of scheduled and of shed chains, core
failures down to an empty platform, finite and unbounded deadlines — and
holds every run to what the scheduler promises (ROADMAP item 5(d)).
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certify import optimality_bracket
from repro.core.solution import Solution
from repro.core.types import Resources
from repro.sim import (
    RESCHED_ACTIONS,
    IncrementalScheduler,
    SimConfig,
    SimEvent,
    SimTrace,
    simulate,
)
from repro.workloads.synthetic import GeneratorConfig, random_ktype_chain

_OPS = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 2**16), st.integers(1, 6)),
    st.tuples(st.just("depart"), st.integers(0, 63)),
    st.tuples(st.just("mutate"), st.integers(0, 63), st.integers(0, 2**16)),
    st.tuples(st.just("fail"), st.integers(0, 2), st.integers(1, 3)),
    st.tuples(st.just("recover"), st.integers(0, 2), st.integers(1, 3)),
)


def _chain(seed: int, tasks: int, ktype: int, name: str):
    config = GeneratorConfig(num_tasks=tasks, stateless_ratio=0.5)
    return random_ktype_chain(np.random.default_rng(seed), config, ktype, name=name)


@st.composite
def storms(draw):
    """A valid trace: ops that need a live chain pick one of those live."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    ktype = len(counts)
    events, active, gone, tasks = [], [], [], {}
    for step, op in enumerate(draw(st.lists(_OPS, min_size=1, max_size=40))):
        time = float(step // 2)  # simultaneous events included
        if op[0] == "arrive" or not active and op[0] in ("depart", "mutate"):
            seed, n = (op[1], op[2]) if op[0] == "arrive" else (step, 3)
            # One arrival in three brings back a name that departed.
            name = gone.pop() if gone and seed % 3 == 0 else f"g{step}"
            tasks[name] = n
            active.append(name)
            events.append(SimEvent("chain_arrival", time, chain=_chain(seed, n, ktype, name)))
        elif op[0] == "depart":
            name = active.pop(op[1] % len(active))
            gone.append(name)
            events.append(SimEvent("chain_departure", time, name=name))
        elif op[0] == "mutate":
            name = active[op[1] % len(active)]
            chain = _chain(op[2], tasks[name], ktype, name)
            events.append(SimEvent("chain_mutation", time, chain=chain))
        else:
            kind = "core_failure" if op[0] == "fail" else "core_recovery"
            events.append(SimEvent(kind, time, core_type=op[1] % ktype, cores=op[2]))
    return SimTrace(initial_counts=counts, events=tuple(events), name="generated")


_CONFIGS = st.builds(
    SimConfig,
    strategy=st.sampled_from(["2catac", "fertac"]),
    deadline=st.sampled_from([None, 0.0, 0.5, 1.0, 3.0, 6.0, 12.0]),
    certify=st.booleans(),
)


def _check_run(trace, result):
    assert result.scheduleless_intervals == 0
    assert result.overcommit_events == 0
    previous, actions = {}, Counter()
    # Registration only: its split is computed afresh for every event, so a
    # remembered split that outlived its inputs shows up as a difference.
    shadow = IncrementalScheduler()
    for event, record in zip(trace.events, result.records):
        if event.kind == "chain_departure":
            shadow.depart(event.name)
        elif event.chain is not None:
            (shadow.admit if event.kind == "chain_arrival" else shadow.mutate)(event.chain)
        available = Resources.from_counts(record.counts)
        kept = list(shadow._records.values())[: available.total]
        split = shadow._allocate(kept, available) if kept else ()
        if event.kind in ("chain_arrival", "chain_departure"):
            previous.pop(event.name, None)
        # One decision per registered chain, in arrival order.
        assert tuple(d.name for d in record.decisions) == shadow.chains
        for position, decision in enumerate(record.decisions):
            actions[decision.action] += 1
            before = previous.get(decision.name)
            if decision.action == "shed":
                assert (decision.counts, decision.period, decision.triplets) == ((), None, ())
                assert decision.cost == 0.0
            else:
                assert decision.counts == split[position]
                allocation = Resources.from_counts(decision.counts)
                profile = shadow._records[decision.name].profile
                assert Solution.from_triplets(decision.triplets).is_valid(profile, allocation)
            if decision.action == "keep":
                assert before is not None and before.action != "shed"
                assert decision.cost == 0.0
                assert (decision.counts, decision.period, decision.triplets) == (
                    before.counts, before.period, before.triplets
                )
            if decision.action == "warm":
                _, upper = optimality_bracket(profile, allocation)
                assert decision.period <= upper * (1 + 1e-9)
            previous[decision.name] = decision
    counters = dict(result.metrics.counters)
    assert {
        rung: counters.get(f"sim.resched.{rung}", 0.0) for rung in RESCHED_ACTIONS
    } == {rung: float(actions[rung]) for rung in RESCHED_ACTIONS}
    assert sum(actions.values()) == sum(len(r.decisions) for r in result.records)


@given(storms(), _CONFIGS, st.data())
@settings(max_examples=100, deadline=None)
def test_generated_storm_holds_every_invariant_and_resumes_bitwise(trace, config, data):
    reference = simulate(trace, config)
    assert reference.num_events == trace.num_events
    _check_run(trace, reference)

    stop_after = data.draw(st.integers(0, trace.num_events), label="stop_after")
    with tempfile.TemporaryDirectory() as scratch:
        journal = Path(scratch) / "run.jsonl"
        partial = simulate(trace, config, journal=journal, stop_after=stop_after)
        assert partial.records == reference.records[:stop_after]
        resumed = simulate(trace, config, journal=journal)
    assert resumed.records == reference.records
    assert resumed.metrics == reference.metrics
    assert resumed.final_periods == reference.final_periods
