"""Property-based tests (hypothesis) for the scheduling core's invariants.

These are the library's strongest correctness guarantees:

1. every strategy returns a structurally valid schedule (contiguous cover,
   Eq. (3) budget respected);
2. HeRAD's period equals the exhaustive optimum and lower-bounds every
   heuristic;
3. the fast HeRAD equals the literal pseudocode reference in both period
   and core usage;
4. the ``CompareCells`` fold is order-insensitive and equivalent to the
   lexicographic key minimum (the insight the vectorization relies on);
5. period bounds always bracket the optimum;
6. a HeRAD batch row's answer does not depend on the rest of the batch, and
   scaling every weight by a power of two scales the period bitwise and
   leaves the schedule alone (Benoit et al.'s scale invariance).
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_bruteforce import brute_force_optimal

from repro.core.bounds import period_bounds
from repro.core.chain_stats import ChainProfile
from repro.core.fertac import fertac
from repro.core.herad import herad
from repro.core.herad_reference import _Cell, _compare_cells, herad_reference
from repro.core.otac import otac_big, otac_little
from repro.core.registry import _BATCH_SPAN, solve_batch
from repro.core.task import TaskChain
from repro.core.twocatac import twocatac
from repro.core.types import CoreType, Resources


@st.composite
def instances(draw, max_tasks: int = 7, max_cores: int = 3):
    """A random small scheduling instance."""
    n = draw(st.integers(1, max_tasks))
    wb = draw(
        st.lists(st.integers(1, 30), min_size=n, max_size=n)
    )
    slow = draw(
        st.lists(st.integers(1, 5), min_size=n, max_size=n)
    )
    rep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    big = draw(st.integers(0, max_cores))
    little = draw(st.integers(0, max_cores))
    if big + little == 0:
        little = 1
    chain = TaskChain.from_weights(
        wb, [w * s for w, s in zip(wb, slow)], rep
    )
    return chain, Resources(big, little)


def _check_structure(solution, profile, resources):
    assert solution.covers(profile)
    usage = solution.core_usage()
    assert resources.fits(usage.big, usage.little)
    # Contiguity is enforced by the constructor; re-check coverage bounds.
    assert solution[0].start == 0
    assert solution[-1].end == profile.n - 1


@given(instances())
@settings(max_examples=80, deadline=None)
def test_every_strategy_returns_valid_schedules(instance):
    chain, resources = instance
    profile = ChainProfile(chain)
    strategies = [herad, twocatac, fertac]
    if resources.big > 0:
        strategies.append(otac_big)
    if resources.little > 0:
        strategies.append(otac_little)
    for strategy in strategies:
        outcome = strategy(profile, resources)
        assert outcome.feasible
        _check_structure(outcome.solution, profile, resources)
        assert outcome.period == outcome.solution.period(profile)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_herad_is_optimal_and_dominates(instance):
    chain, resources = instance
    profile = ChainProfile(chain)
    optimal = herad(profile, resources)
    oracle = brute_force_optimal(profile, resources)
    assert optimal.period == oracle.period(profile)
    for heuristic in (twocatac, fertac):
        assert heuristic(profile, resources).period >= optimal.period - 1e-9


@given(instances(max_tasks=8))
@settings(max_examples=60, deadline=None)
def test_fast_herad_equals_reference(instance):
    chain, resources = instance
    profile = ChainProfile(chain)
    fast = herad(profile, resources, merge=False)
    ref = herad_reference(profile, resources)
    assert fast.period == ref.period(profile)
    assert fast.solution.core_usage() == ref.core_usage()


@given(instances())
@settings(max_examples=40, deadline=None)
def test_bounds_bracket_the_optimum(instance):
    chain, resources = instance
    profile = ChainProfile(chain)
    bounds = period_bounds(profile, resources)
    optimum = herad(profile, resources).period
    assert bounds.lower <= optimum + 1e-9
    assert optimum <= bounds.upper + 1e-9


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=100, deadline=None)
def test_compare_cells_fold_is_order_insensitive(raw_cells):
    """The CompareCells fold equals the lexicographic (P, acc_b, acc_l)
    minimum regardless of candidate order — the basis of the vectorized
    HeRAD (DESIGN.md §5)."""
    cells = [
        _Cell(pbest=float(p), acc_b=b, acc_l=l) for b, l, p in raw_cells
    ]
    outcomes = set()
    permutations = itertools.islice(itertools.permutations(cells), 24)
    for perm in permutations:
        current = perm[0]
        for new in perm[1:]:
            current = _compare_cells(current, new)
        outcomes.add((current.pbest, current.acc_b, current.acc_l))
    expected = min((c.pbest, c.acc_b, c.acc_l) for c in cells)
    assert outcomes == {expected}


@given(instances(max_tasks=6, max_cores=2))
@settings(max_examples=40, deadline=None)
def test_merge_flag_never_changes_period_or_usage(instance):
    chain, resources = instance
    merged = herad(chain, resources, merge=True)
    plain = herad(chain, resources, merge=False)
    assert merged.period == plain.period
    assert merged.solution.core_usage() == plain.solution.core_usage()


@given(instances(max_tasks=6, max_cores=2), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_adding_cores_never_hurts(instance, extra):
    chain, resources = instance
    base = herad(chain, resources).period
    more_big = herad(
        chain, Resources(resources.big + extra, resources.little)
    ).period
    more_little = herad(
        chain, Resources(resources.big, resources.little + extra)
    ).period
    assert more_big <= base + 1e-12
    assert more_little <= base + 1e-12


@given(instances(max_tasks=6, max_cores=3))
@settings(max_examples=40, deadline=None)
def test_memoized_twocatac_is_equivalent(instance):
    chain, resources = instance
    plain = twocatac(chain, resources)
    memo = twocatac(chain, resources, memoize=True)
    assert plain.period == memo.period
    assert plain.solution.core_usage() == memo.solution.core_usage()


def _facets(outcome):
    """An outcome's observable facets, with floats as exact bits."""
    return (
        outcome.period.hex(),
        outcome.solution.render(),
        (outcome.bounds.lower.hex(), outcome.bounds.upper.hex()),
    )


@given(
    st.lists(instances(max_tasks=40), min_size=1, max_size=4),
    st.sampled_from((1, 2, _BATCH_SPAN + 1)),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_herad_batch_row_is_independent_of_its_neighbours(drawn, size, data):
    """Any composition — shuffled, duplicated rows, lengths 1-40 mixed, one
    span or two — answers each row as the one-row batch does."""
    pool = [ChainProfile(chain) for chain, _ in drawn]
    resources = drawn[0][1]
    alone = [_facets(herad(profile, resources)) for profile in pool]
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size)
    )
    outcomes = solve_batch([pool[i] for i in picks], resources, "herad")
    assert [_facets(o) for o in outcomes] == [alone[i] for i in picks]


@given(instances(max_tasks=8), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_herad_scales_with_the_weights(instance, k):
    chain, resources = instance
    scaled = TaskChain.from_weights(
        [w * 2.0**k for w in chain.weights(CoreType.BIG)],
        [w * 2.0**k for w in chain.weights(CoreType.LITTLE)],
        [task.replicable for task in chain.tasks],
    )
    base, got = herad(chain, resources), herad(scaled, resources)
    assert got.period.hex() == (base.period * 2.0**k).hex()
    assert got.solution.render() == base.solution.render()
