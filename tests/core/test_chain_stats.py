"""Tests for repro.core.chain_stats (ChainProfile and Algo. 3 primitives)."""

from __future__ import annotations

import gc
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import traced_memory

from repro.core.bounds import period_bounds
from repro.core.chain_stats import ChainProfile, profile_of
from repro.core.errors import InvalidChainError, InvalidParameterError
from repro.core.registry import get_strategy
from repro.core.task import TaskChain
from repro.core.twocatac import twocatac
from repro.core.types import INFINITY, CoreType, Resources
from repro.workloads.synthetic import GeneratorConfig, chain_batch


@pytest.fixture
def profile(simple_chain) -> ChainProfile:
    return ChainProfile(simple_chain)


class TestBasics:
    def test_totals(self, profile):
        assert profile.total_weight(CoreType.BIG) == 24
        assert profile.total_weight(CoreType.LITTLE) == 53

    def test_max_weights(self, profile):
        assert profile.max_weight(CoreType.BIG) == 10
        assert profile.max_weight(CoreType.LITTLE) == 21

    def test_max_sequential_weight(self, profile):
        # Only task index 2 is sequential.
        assert profile.max_sequential_weight(CoreType.BIG) == 3
        assert profile.max_sequential_weight(CoreType.LITTLE) == 8

    def test_max_sequential_weight_zero_when_fully_replicable(self):
        chain = TaskChain.from_weights([1, 2], [2, 4], [True, True])
        p = ChainProfile(chain)
        assert p.max_sequential_weight(CoreType.BIG) == 0.0

    def test_profile_of_idempotent(self, profile):
        assert profile_of(profile) is profile

    def test_profile_of_wraps_chain(self, simple_chain):
        assert isinstance(profile_of(simple_chain), ChainProfile)


class TestIntervalQueries:
    def test_interval_weight_matches_sum(self, profile, simple_chain):
        for s in range(4):
            for e in range(s, 4):
                expected = sum(
                    t.weight_big for t in simple_chain.tasks[s : e + 1]
                )
                assert profile.interval_weight(s, e, CoreType.BIG) == expected

    def test_interval_bounds_checked(self, profile):
        with pytest.raises(InvalidChainError):
            profile.interval_weight(2, 1, CoreType.BIG)
        with pytest.raises(InvalidChainError):
            profile.interval_weight(0, 4, CoreType.BIG)

    def test_is_replicable(self, profile):
        assert profile.is_replicable(0, 1)
        assert not profile.is_replicable(0, 2)
        assert not profile.is_replicable(2, 2)
        assert profile.is_replicable(3, 3)

    def test_next_sequential(self, profile):
        assert list(profile.next_sequential) == [2, 2, 2, 4, 4]

    def test_final_replicable_task(self, profile):
        assert profile.final_replicable_task(0, 0) == 1
        assert profile.final_replicable_task(3, 3) == 3

    def test_final_replicable_task_requires_replicable(self, profile):
        with pytest.raises(InvalidChainError):
            profile.final_replicable_task(0, 2)


class TestStageWeight:
    def test_replicable_stage_divides(self, profile):
        assert profile.stage_weight(0, 1, 2, CoreType.BIG) == 7.0

    def test_sequential_stage_ignores_cores(self, profile):
        assert profile.stage_weight(0, 2, 1, CoreType.BIG) == 17.0
        assert profile.stage_weight(0, 2, 5, CoreType.BIG) == 17.0

    def test_zero_cores_is_infinite(self, profile):
        assert profile.stage_weight(0, 1, 0, CoreType.BIG) == INFINITY

    def test_little_weights_used(self, profile):
        assert profile.stage_weight(0, 0, 1, CoreType.LITTLE) == 9.0


class TestRequiredCores:
    def test_formula(self, profile):
        # w([0,1], B) = 14; ceil(14/5) = 3.
        assert profile.required_cores(0, 1, CoreType.BIG, 5.0) == 3

    def test_minimum_one(self, profile):
        assert profile.required_cores(0, 0, CoreType.BIG, 100.0) == 1

    def test_invalid_period(self, profile):
        with pytest.raises(ValueError):
            profile.required_cores(0, 1, CoreType.BIG, 0.0)
        with pytest.raises(ValueError):
            profile.required_cores(0, 1, CoreType.BIG, math.inf)

    def test_a_need_past_the_float_range_is_the_exact_ceiling(self):
        """``3 * 2^53 / 5e-324`` overflows a float; the count stays exact."""
        chain = TaskChain.from_weights(
            [5e-324, 5e-324, 1e-300], [2.0**53, 2.0**54, 1.0], [True, False, True]
        )
        need = ChainProfile(chain).required_cores(0, 1, CoreType.LITTLE, 5e-324)
        assert need == math.ceil(Fraction(3 * 2**53) / Fraction(5e-324))
        assert need > 2**1024


class TestMaxPacking:
    def test_packs_under_period(self, profile):
        # Big weights 4, 10, 3, 7; one core, period 14 packs tasks 0-1.
        assert profile.max_packing(0, 1, CoreType.BIG, 14.0) == 1

    def test_sequential_region_reached(self, profile):
        # Period 17 packs 0..2 (sum 17, contains the sequential task).
        assert profile.max_packing(0, 1, CoreType.BIG, 17.0) == 2

    def test_replication_extends_packing(self, profile):
        # Two cores halve the replicable prefix weight: 14/2 = 7 <= 7.
        assert profile.max_packing(0, 2, CoreType.BIG, 7.0) == 1

    def test_forced_single_task(self, profile):
        # Nothing fits in period 1, but the stage still takes task 0.
        assert profile.max_packing(0, 1, CoreType.BIG, 1.0) == 0

    def test_zero_cores_forced(self, profile):
        assert profile.max_packing(0, 0, CoreType.BIG, 100.0) == 0

    def test_whole_chain(self, profile):
        assert profile.max_packing(0, 1, CoreType.BIG, 100.0) == 3

    @given(
        weights=st.lists(st.integers(1, 50), min_size=1, max_size=12),
        seq_mask=st.lists(st.booleans(), min_size=1, max_size=12),
        cores=st.integers(1, 4),
        period=st.floats(1.0, 200.0),
        start=st.integers(0, 11),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, weights, seq_mask, cores, period, start):
        """MaxPacking's binary search equals the paper's linear definition."""
        n = len(weights)
        seq_mask = (seq_mask * n)[:n]
        start = start % n
        chain = TaskChain.from_weights(
            weights, [w * 2 for w in weights], [not s for s in seq_mask]
        )
        p = ChainProfile(chain)
        # Naive: max(start, max{e | w([start,e],cores) <= period}).
        best = start
        for e in range(start, n):
            if p.stage_weight(start, e, cores, CoreType.BIG) <= period:
                best = max(best, e)
        assert p.max_packing(start, cores, CoreType.BIG, period) == best


class TestVectorHelpers:
    def test_weights_view(self, profile):
        np.testing.assert_array_equal(
            profile.weights(CoreType.BIG), [4, 10, 3, 7]
        )


# -- the tuple profile against the numpy formulas it replaced ----------------

#: Edge weights (``Task`` rejects zero, so the subnormal stands in for it):
#: duplicates, near-zero, and values around 2**53 where float sums absorb.
_EDGE_WEIGHTS = (5e-324, 1e-300, 1.0, 1.0, 3.0, 0.1, 2.0**53 - 1, 2.0**53, 2.0**53 + 2)

_weights = st.one_of(
    st.sampled_from(_EDGE_WEIGHTS),
    st.floats(1e-6, 1e6, allow_nan=False),
    st.integers(1, 50).map(float),
)


@st.composite
def _profiles(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    ktype = draw(st.sampled_from((2, 3)))
    rows = [
        draw(st.lists(_weights, min_size=n, max_size=n)) for _ in range(ktype)
    ]
    replicable = draw(
        st.one_of(
            st.just([True] * n),
            st.just([False] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    return ChainProfile(TaskChain.from_weight_matrix(rows, replicable))


def _numpy_tables(chain):
    """The profile as the numpy formulation built it: ``np.cumsum`` prefixes
    behind a zero, the next-sequential index, per-type maxima and totals."""
    weights = [np.asarray(chain.weights(v), dtype=np.float64) for v in chain.types()]
    prefix = []
    for w in weights:
        p = np.zeros(chain.n + 1, dtype=np.float64)
        np.cumsum(w, out=p[1:])
        prefix.append(p)
    rep = np.asarray([t.replicable for t in chain.tasks], dtype=bool)
    nxt = np.full(chain.n + 1, chain.n, dtype=np.int64)
    for i in range(chain.n - 1, -1, -1):
        nxt[i] = i if not rep[i] else nxt[i + 1]
    seq = ~rep
    return SimpleNamespace(
        weights=weights,
        replicable=rep,
        prefix=prefix,
        next_sequential=nxt,
        max_weight=[float(w.max()) for w in weights],
        max_seq_weight=[
            float(w[seq].max()) if seq.any() else 0.0 for w in weights
        ],
        total=[float(p[-1]) for p in prefix],
    )


def _numpy_period_bounds(chain, resources):
    """``period_bounds``' ``(lower, upper)`` as written on ndarrays."""
    tables = _numpy_tables(chain)
    usable = resources.usable_types()
    per_task_min = np.minimum.reduce([tables.weights[v] for v in usable])
    balance = float(per_task_min.sum()) / resources.total
    seq = ~tables.replicable
    heaviest_seq = float(per_task_min[seq].max()) if seq.any() else 0.0
    lower = max(balance, heaviest_seq)
    upper = min(
        tables.total[v] / resources.count(v) + tables.max_weight[v]
        for v in usable
    )
    return lower, max(upper, lower)


def _numpy_max_packing(tables, start, cores, v, period):
    """``max_packing`` exactly as written on ``np.searchsorted``."""
    if cores < 1:
        return start
    p = tables.prefix[v]
    n = len(p) - 1
    base = p[start]
    nxt = int(tables.next_sequential[start])
    best = start
    hi_rep = min(nxt - 1, n - 1)
    if hi_rep >= start:
        e = int(np.searchsorted(p, base + period * cores, side="right")) - 2
        e = min(e, hi_rep)
        if e >= start:
            best = max(best, e)
    if nxt <= n - 1:
        e = int(np.searchsorted(p, base + period, side="right")) - 2
        e = min(e, n - 1)
        if e >= nxt:
            best = max(best, e)
    return best


def _same_bits(got, want):
    assert type(got) is type(want)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


_NUMPY_DIR = os.path.dirname(np.__file__)


def _numpy_calls(call):
    """``call()``'s result and every call it makes into numpy, as
    ``(callee, calling file)``: C functions of the numpy modules, methods of
    arrays, scalars and ufuncs, and python functions defined under numpy."""
    calls = []

    def hook(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or ""
            if module.startswith("numpy") or isinstance(
                owner, (np.ndarray, np.generic, np.ufunc)
            ):
                name = getattr(owner, "__name__", type(owner).__name__)
                calls.append(
                    (f"{name}.{arg.__name__}", os.path.basename(frame.f_code.co_filename))
                )
        elif event == "call" and frame.f_code.co_filename.startswith(_NUMPY_DIR):
            calls.append((frame.f_code.co_name, frame.f_code.co_filename))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return SimpleNamespace(result=result, calls=calls)


class TestScalarMirror:
    @given(
        profile=_profiles(),
        data=st.data(),
        cores=st.integers(0, 6),
        period=st.one_of(
            st.floats(1e-9, 1e18, allow_nan=False),
            st.sampled_from((1.0, 3.0, 2.0**53, 1.7e308)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_queries_equal_the_numpy_formulas(
        self, profile, data, cores, period
    ):
        start = data.draw(st.integers(0, profile.n - 1))
        end = data.draw(st.integers(start, profile.n - 1))
        v = data.draw(st.integers(0, profile.ktype - 1))
        tables = _numpy_tables(profile.chain)
        p = tables.prefix[v]
        w = float(p[end + 1] - p[start])
        rep = int(tables.next_sequential[start]) > end

        _same_bits(profile.interval_weight(start, end, v), w)
        assert profile.is_replicable(start, end) is rep
        if rep:
            assert profile.final_replicable_task(start, end) == min(
                int(tables.next_sequential[start]) - 1, profile.n - 1
            )
        else:
            with pytest.raises(InvalidChainError):
                profile.final_replicable_task(start, end)
        if cores < 1:
            assert profile.stage_weight(start, end, cores, v) == INFINITY
        else:
            _same_bits(
                profile.stage_weight(start, end, cores, v),
                w / cores if rep else w,
            )
        assert profile.required_cores(start, end, v, period) == max(
            1, math.ceil(w / period)
        )
        got = profile.max_packing(start, cores, v, period)
        assert type(got) is int
        assert got == _numpy_max_packing(tables, start, cores, v, period)

    @given(profile=_profiles(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_guards_still_raise(self, profile, data):
        n = profile.n
        start, end = data.draw(
            st.sampled_from(((-1, 0), (0, n), (n, n), (1, 0), (n - 1, n)))
        )
        for query in (
            lambda: profile.interval_weight(start, end, 0),
            lambda: profile.is_replicable(start, end),
            lambda: profile.final_replicable_task(start, end),
            lambda: profile.stage_weight(start, end, 1, 0),
            lambda: profile.required_cores(start, end, 0, 1.0),
            lambda: profile.max_packing(n, 1, 0, 1.0),
            lambda: profile.max_packing(-1, 1, 0, 1.0),
        ):
            with pytest.raises(InvalidChainError):
                query()
        for period in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                profile.required_cores(0, n - 1, 0, period)

    @given(profile=_profiles(max_n=40), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_profile_and_bounds_equal_the_numpy_formulas(self, profile, data):
        """Prefix bits, next-sequential index, maxima and totals, and both
        ends of the period bracket, on k = 2 and 3 chains up to 40 tasks
        (numpy's pairwise sum blocks by 8) with subnormal, duplicate and
        ~2^53 weights."""
        want = _numpy_tables(profile.chain)
        assert type(profile.prefix) is tuple and len(profile.prefix) == profile.ktype
        for v in profile.types():
            row = profile.prefix[v]
            assert type(row) is tuple and len(row) == profile.n + 1
            for got, ref in zip(row, want.prefix[v].tolist()):
                _same_bits(got, ref)
            _same_bits(profile.max_weight(v), want.max_weight[v])
            _same_bits(profile.max_sequential_weight(v), want.max_seq_weight[v])
            _same_bits(profile.total_weight(v), want.total[v])
        assert type(profile.next_sequential) is tuple
        assert all(type(i) is int for i in profile.next_sequential)
        assert profile.next_sequential == tuple(want.next_sequential.tolist())

        ktype = data.draw(st.integers(2, profile.ktype))
        counts = data.draw(
            st.lists(st.integers(0, 6), min_size=ktype, max_size=ktype).filter(any)
        )
        resources = Resources.from_counts(counts)
        got = period_bounds(profile, resources)
        lower, upper = _numpy_period_bounds(profile.chain, resources)
        _same_bits(got.lower, lower)
        _same_bits(got.upper, upper)

    def test_profile_and_greedy_solves_build_no_ndarray(self, simple_chain):
        """Profiling calls no numpy at all; a FERTAC or 2CATAC solve calls it
        once, for the bracket's pairwise sum (``period_bounds``)."""
        profile = _numpy_calls(lambda: ChainProfile(simple_chain))
        assert profile.calls == []
        for value in (profile.result.prefix, profile.result.next_sequential):
            assert type(value) is tuple
        resources = Resources(2, 2)
        for solve in (
            lambda: get_strategy("fertac")(profile.result, resources),
            lambda: get_strategy("2catac")(profile.result, resources),
            lambda: twocatac(profile.result, resources, memoize=True),
        ):
            solve()  # first-call imports and caches
            assert _numpy_calls(solve).calls == [("add.reduce", "bounds.py")]


class TestProfileMemory:
    """What a profile keeps is its tables: ``k`` prefix tuples of ``n + 1``
    floats, the next-sequential tuple of small (cached) ints and three
    ``k``-tuples of floats the chain already holds; solving on it adds
    nothing.  Stated from the objects' own sizes, as ``tracemalloc`` counts
    are deterministic: at n = 20, k = 2 the bound is ~2.9 kB a profile and a
    run retains ~2.3 kB a profile (~1.9 kB of tables), where the ndarray
    profile with its list mirror retained ~4.0 kB."""

    N, COUNT = 20, 300
    #: Per-profile share of the result list and of the solves' free-list
    #: residue: objects freed into CPython's free lists stay traced.
    SLACK = 1 << 10
    #: How far an identical run may retain from the median run (±1 kB).
    NOISE = 1 << 10

    def _bound(self, profile):
        floats = sys.getsizeof(1.5) * profile.n * profile.ktype  # new sums
        tables = (
            sys.getsizeof(profile)
            + sys.getsizeof(profile.prefix)
            + sum(map(sys.getsizeof, profile.prefix))
            + sys.getsizeof(profile.next_sequential)
            + 3 * sys.getsizeof((1.5,) * profile.ktype)
        )
        return floats + tables + self.SLACK

    def test_retained_bytes_after_herad_and_fertac(self):
        config = GeneratorConfig(num_tasks=self.N, stateless_ratio=0.5)
        chains = list(chain_batch(self.COUNT + 1, config, seed=3))
        resources = Resources(4, 4)
        herad, fertac = get_strategy("herad"), get_strategy("fertac")

        def build():
            # Every run starts with CPython's free lists empty (a full
            # collection clears them) and none is cleared mid-run, so every
            # run allocates, and ``tracemalloc`` counts, the same blocks.
            gc.collect()
            gc.disable()
            try:
                profiles = [ChainProfile(chain) for chain in chains[: self.COUNT]]
                for profile in profiles:
                    herad(profile, resources)
                    fertac(profile, resources)
            finally:
                gc.enable()
            return profiles

        spare = ChainProfile(chains[-1])
        herad(spare, resources), fertac(spare, resources)  # first-call caches
        build()
        retained = [traced_memory(build)[0] for _ in range(3)]
        bound = self._bound(spare)
        assert max(retained) / self.COUNT <= bound, (retained, bound)
        middle = sorted(retained)[1]
        assert all(abs(r - middle) <= self.NOISE for r in retained), retained
