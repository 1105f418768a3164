"""Differential tests for the batch solve path (``registry.solve_batch``).

What campaigns solve on — HeRAD's DP over a whole batch and 2CATAC's
memoised walk — promises outcomes **bitwise identical** to solving each
chain alone.  These tests pin that promise at three levels: the packing
invariants, both HeRAD call shapes against the answers of the deleted solo
DP (``tests/data/herad_solo_oracle.json``: the full outcome — period bits,
rendered schedule, probe log, iteration count, bounds — over mixed batches
and degenerate budgets) with the packed key's lane edges, and
:func:`repro.core.registry.solve_batch` against the 1260-cell pre-refactor
oracle fixture.  ``tests/data/herad_tie_oracle.json`` (weights in ``{1, 2}``,
frozen before the plane loop was blocked) holds the same two call shapes to
the full stage list where equal keys are the rule, at every block size.
"""

from __future__ import annotations

import itertools
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from tests import chain_shapes as g

from repro.core.chain_stats import ChainProfile
from repro.core.errors import InvalidChainError, InvalidPlatformError
from repro.core.herad import (
    _ACC_B_SHIFT,
    _ACC_L_SHIFT,
    _LANE_LIMIT,
    _decode,
    _pack,
    herad,
    herad_batch,
)
from repro.core.registry import get_info, get_strategy, solve_batch
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources
from repro.workloads.synthetic import (
    GeneratorConfig,
    chain_batch,
    ktype_chain_batch,
)

_DATA = Path(__file__).resolve().parent.parent / "data"
_FIXTURE = _DATA / "k2_oracle.json"
#: What the solo HeRAD DP answered at the commit before it was deleted.
_SOLO_ORACLE = json.loads((_DATA / "herad_solo_oracle.json").read_text())["rows"]
#: What the per-``(type, u)`` plane loop answered on tie-heavy chains.
_TIE_ORACLE = json.loads((_DATA / "herad_tie_oracle.json").read_text())

# The package re-exports the ``herad`` *function* under the submodule's name.
herad_mod = importlib.import_module("repro.core.herad")

#: Budgets covering the paper scenario plus every degenerate shape (single
#: type, single core, tiny planes).
_BUDGETS = (
    Resources(10, 10),
    Resources(4, 4),
    Resources(2, 6),
    Resources(5, 1),
    Resources(1, 5),
    Resources(4, 0),
    Resources(0, 4),
    Resources(1, 1),
)


def _mixed_profiles():
    """Chains of every length 1..20 plus the structured generators."""
    chains = []
    for n in range(1, 21):
        cfg = GeneratorConfig(num_tasks=n, stateless_ratio=0.5)
        chains.extend(chain_batch(1, cfg, seed=100 + n))
    chains += [
        g.fully_replicable_chain(12),
        g.fully_sequential_chain(12),
        g.alternating_chain(15),
        g.heavy_tail_chain(10),
        g.inverted_speed_chain(14),
        g.uniform_chain(1),
    ]
    return [ChainProfile(c) for c in chains]


def _signature(outcome):
    """Every observable facet of an outcome, with periods as exact bits."""
    return (
        outcome.period.hex(),
        outcome.solution.render(),
        outcome.iterations,
        tuple((target.hex(), feasible) for target, feasible in outcome.probes),
        (outcome.bounds.lower.hex(), outcome.bounds.upper.hex()),
    )


def _assert_equals_solo(row, profile, budget, batched):
    """Both call shapes reproduce one frozen answer of the solo DP."""
    want = row["signature"]
    for outcome in (herad(profile, budget), batched):
        assert json.loads(json.dumps(_signature(outcome))) == want
    unmerged = herad(profile, budget, merge=False).solution.render()
    assert unmerged == row["render_unmerged"]


class TestChainPack:
    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidChainError):
            _pack([])
        with pytest.raises(InvalidChainError):
            herad_batch([], Resources(4, 4))

    def test_padding_invariants(self):
        profiles = _mixed_profiles()
        prefixes, next_seq = _pack(profiles)
        assert next_seq.shape == (len(profiles), max(p.n for p in profiles) + 1)
        for row, profile in enumerate(profiles):
            for v in (0, 1):
                plane = prefixes[v][row]
                # Real prefix values, then the final value repeated.
                assert list(plane[: profile.n + 1]) == list(profile.prefix[v])
                assert (plane[profile.n :] == plane[profile.n]).all()
                assert (plane[1:] >= plane[:-1]).all()
            # Real next-sequential entries, then "none past the real chain".
            assert list(next_seq[row, : profile.n + 1]) == list(
                profile.next_sequential
            )
            assert (next_seq[row, profile.n + 1 :] == profile.n).all()


class TestKernelDifferential:
    @pytest.mark.parametrize("budget", _BUDGETS, ids=str)
    def test_bitwise_equal_to_python(self, budget):
        """``herad(p, R)`` and row *i* of ``herad_batch(profiles, R)`` both
        equal what the deleted solo DP answered, on every cell."""
        profiles = _mixed_profiles()
        rows = [
            row
            for row in _SOLO_ORACLE
            if "chain" in row and row["budget"] == [budget.big, budget.little]
        ]
        assert [row["chain"] for row in rows] == list(range(len(profiles)))
        batch_outcomes = herad_batch(profiles, budget)
        assert len(batch_outcomes) == len(profiles)
        for row, profile, batched in zip(rows, profiles, batch_outcomes):
            _assert_equals_solo(row, profile, budget, batched)

    def test_large_planes_equal_solo_oracle(self):
        """n=60 at (20,20) and n=20 at (40,40): past every tiny-plane path."""
        rows = [row for row in _SOLO_ORACLE if "chain" not in row]
        assert [(r["n"], r["budget"]) for r in rows] == [
            (60, [20, 20]),
            (20, [40, 40]),
        ]
        for row in rows:
            cfg = GeneratorConfig(num_tasks=row["n"], stateless_ratio=0.5)
            (chain,) = chain_batch(1, cfg, seed=row["seed"])
            profile, budget = ChainProfile(chain), Resources(*row["budget"])
            (batched,) = herad_batch([profile], budget)
            _assert_equals_solo(row, profile, budget, batched)

    def test_k3_budget_rejected(self):
        profiles = _mixed_profiles()[:3]
        budget = Resources.from_counts((4, 4, 2))
        with pytest.raises(InvalidPlatformError):
            herad_batch(profiles, budget)
        with pytest.raises(InvalidPlatformError):
            herad(profiles[0], budget)

    def test_empty_budget_rejected(self):
        profiles = _mixed_profiles()[:3]
        with pytest.raises(InvalidPlatformError):
            herad_batch(profiles, Resources(0, 0))
        for name in ("herad", "2catac", "2catac_memo"):
            with pytest.raises(InvalidPlatformError):
                solve_batch(profiles, Resources(0, 0), name)

    def test_oversized_budget_exceeds_packed_key_lanes(self, monkeypatch):
        """Refused with the typed error before anything is allocated."""

        def reached(*args):
            raise AssertionError(f"the DP was entered with {args[1:]}")

        monkeypatch.setattr(herad_mod, "_fill_tables", reached)
        profile = _mixed_profiles()[0]
        assert profile.n == 1
        # One type past its lane, then both types within theirs but their
        # candidates past the low lane: (b + l) * (n + 1) = 2^22.
        for budget in (
            Resources(1 << 21, 1),
            Resources(1, 1 << 21),
            Resources(1 << 20, 1 << 20),
        ):
            for refused in (
                lambda: herad(profile, budget),
                lambda: herad_batch([profile], budget),
                lambda: solve_batch([profile], budget, "herad"),
            ):
                with pytest.raises(InvalidPlatformError):
                    refused()

    def test_budget_filling_the_low_lane_exactly_reaches_the_dp(
        self, monkeypatch
    ):
        """``(b + l) * (n + 1) == 2^21`` is inside the lanes: the guard lets
        it through (to a stub, which is all this box could run)."""

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(herad_mod, "_fill_tables", reached)
        profile = _mixed_profiles()[0]
        with pytest.raises(Reached):
            herad(profile, Resources(1 << 19, 1 << 19))


def _stages(solution):
    return [[s.start, s.end, s.cores, int(s.core_type)] for s in solution.stages]


class TestTieOracle:
    """Equal keys everywhere: which candidate and which source cell win is
    what a rewrite of the plane loop can change without moving a period."""

    #: The default, one ``u`` per block, and every ``u`` of a plane at once.
    @pytest.mark.parametrize("block_cells", (None, 1, 1 << 30))
    def test_both_call_shapes_equal_the_frozen_stage_lists(
        self, block_cells, monkeypatch
    ):
        if block_cells is not None:
            monkeypatch.setattr(herad_mod, "_BLOCK_CELLS", block_cells)
        profiles = [
            ChainProfile(TaskChain.from_weights(
                spec["big"], spec["little"], spec["replicable"]
            ))
            for spec in _TIE_ORACLE["chains"]
        ]
        assert {p.n for p in profiles} == {1, 2, 5, 20}
        rows = _TIE_ORACLE["rows"]
        for budget in sorted({tuple(row["budget"]) for row in rows}):
            resources = Resources(*budget)
            batch = herad_batch(profiles, resources)
            mine = [row for row in rows if tuple(row["budget"]) == budget]
            assert [row["chain"] for row in mine] == list(range(len(profiles)))
            for row, profile, batched in zip(mine, profiles, batch):
                solo = herad(profile, resources)
                unmerged = herad(profile, resources, merge=False)
                for outcome, want in (
                    (solo, row["herad"]),
                    (batched, row["herad_batch"]),
                ):
                    usage = outcome.solution.core_usage()
                    assert outcome.period.hex() == want["period"]
                    assert [usage.big, usage.little] == want["usage"]
                    assert _stages(outcome.solution) == want["stages"]
                assert _stages(unmerged.solution) == row["herad"]["stages_unmerged"]


#: numpy's own modules: a small array they allocate may be parked in numpy's
#: buffer cache when freed, which ``tracemalloc`` still counts, a varying few.
_NUMPY_FILES = tracemalloc.Filter(False, str(Path(np.__file__).parent / "*"))


def _held(snapshot):
    return sum(trace.size for trace in snapshot.filter_traces([_NUMPY_FILES]).traces)


def traced_memory(call):
    """``(retained, peak)`` bytes of ``call()`` under ``tracemalloc``: what it
    allocated outside numpy's modules and still holds when it returns, its
    result included, and the peak."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    before = _held(tracemalloc.take_snapshot())
    tracemalloc.reset_peak()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        retained = _held(tracemalloc.take_snapshot()) - before
        del result  # alive until the memory is read
        return retained, peak
    finally:
        if not was_tracing:
            tracemalloc.stop()


def traced_peak(call):
    """The ``tracemalloc`` peak, in bytes, of ``call()``."""
    return traced_memory(call)[1]


class TestBlockMemory:
    """A block cap past the largest block the DP can build costs nothing:
    at ``C* = size * n * cells * max(1, max(b, l) - 1)`` every ``u`` of a
    plane already stacks, so 2^30 builds the same blocks and may allocate
    no more.  The slack is Python-object noise, a few hundred bytes.

    And a fill's peak is budgeted by formula: what the DP sizes from
    ``(size, n, b, l)`` plus a stated slack."""

    SLACK = 16 << 10
    #: Plane-sized (``size * cells`` 8-byte) temporaries a plane may hold
    #: beside the stated arrays — the neighbour sweep's ranks, orders and
    #: codes, the plane's minima and gathers (~15 measured) — and a fixed
    #: allowance for packing, profiles and outcomes (~40 kB measured).
    TEMP_PLANES = 20
    FIXED = 64 << 10

    @staticmethod
    def stated_bytes(size, n, big, little):
        """The arrays of one fill, by the DP's own sizing rules: tables
        (period and combo over ``pad`` extra big rows, ``how``), the
        little-major twin, the slot stack and the two candidate buffers."""
        cells = (big + 1) * (little + 1)
        cap = herad_mod._BLOCK_CELLS
        stack = max(1, min(cap // (size * cells), max(big, little) - 1))
        pad_b, pad_l = (max(0, min(stack, v - 1) - 1) for v in (big, little))
        depth = max(1, min(stack, cap // (size * n * cells)))
        slots = 1 + sum(1 + -(-(v - 1) // depth) for v in (big, little) if v)
        slots = min(max(3, n + 1), slots)
        planes = size * (n + 1)
        tables = 16 * planes * (big + 1 + pad_b) * (little + 1)
        tables += 8 * planes * cells
        twin = 16 * planes * (little + 1 + pad_l) * (big + 1) if little else 0
        room = max(size * n * cells, min(cap, size * n * cells * stack))
        return tables + twin + 16 * slots * size * cells + 16 * room

    @pytest.mark.parametrize("budget", ((10, 10), (16, 4), (4, 16)))
    def test_span_fill_peak_within_stated_bound(self, budget):
        """One 25-row fill (a campaign span) at each Table I budget."""
        cfg = GeneratorConfig(num_tasks=20, stateless_ratio=0.5)
        profiles = [ChainProfile(c) for c in chain_batch(25, cfg, seed=7)]
        resources = Resources(*budget)
        herad_batch(profiles, resources)  # first-call caches
        peak = traced_peak(lambda: herad_batch(profiles, resources))
        size, cells = len(profiles), (budget[0] + 1) * (budget[1] + 1)
        bound = self.stated_bytes(size, 20, *budget)
        bound += self.TEMP_PLANES * 8 * size * cells + self.FIXED
        assert peak <= bound

    @pytest.mark.parametrize("budget", ((0, 5), (4, 4), (10, 10), (16, 4)))
    def test_peak_at_2_30_is_the_peak_at_the_largest_block(
        self, budget, monkeypatch
    ):
        profiles = [
            ChainProfile(TaskChain.from_weights(
                spec["big"], spec["little"], spec["replicable"]
            ))
            for spec in _TIE_ORACLE["chains"]
        ]
        longest = max(profiles, key=lambda p: p.n)
        resources = Resources(*budget)
        # size * n * cells * max(1, max(b, l) - 1), with n the batch's.
        per_row = longest.n * (budget[0] + 1) * (budget[1] + 1)
        per_row *= max(1, max(budget) - 1)
        for call, size in (
            (lambda: herad_batch(profiles, resources), len(profiles)),
            (lambda: herad(longest, resources), 1),
        ):
            call()  # first-call caches are not the buffers' to pay for
            monkeypatch.setattr(herad_mod, "_BLOCK_CELLS", size * per_row)
            at_largest_block = traced_peak(call)
            monkeypatch.setattr(herad_mod, "_BLOCK_CELLS", 1 << 30)
            assert traced_peak(call) <= at_largest_block + self.SLACK


class TestPackedKeyLanes:
    """``acc_b << 42 | acc_l << 21 | q * (n + 1) + start``: three 21-bit
    lanes, the low one naming the candidate, and ``how = source << 21 |
    low`` naming the cell it won through."""

    #: ``n + 1`` of a one-task, a Table I and the longest admissible chain.
    WIDTHS = (2, 21, 1 << 20)

    @staticmethod
    def edges(limit):
        """Both ends of ``range(limit)``, ascending and distinct."""
        return sorted({0, 1, limit - 2, limit - 1} & set(range(limit)))

    def test_key_orders_like_the_tuple_at_the_lane_edges(self):
        accs = self.edges(_LANE_LIMIT)
        for width in self.WIDTHS:
            # q < b + l <= 2^21 / (n + 1) and start < n.
            qs = self.edges(_LANE_LIMIT // width)
            starts = self.edges(width - 1)
            # product() of ascending edges yields the tuples in tuple order.
            tuples = list(itertools.product(accs, accs, qs, starts))
            acc_b, acc_l, q, start = np.array(tuples, dtype=np.int64).T
            low = q * width + start
            assert (low <= _LANE_LIMIT - 1).all()
            keys = (acc_b << _ACC_B_SHIFT) | (acc_l << _ACC_L_SHIFT) | low
            assert (keys >= 0).all()  # sign-safe
            assert (np.diff(keys) > 0).all()  # order-isomorphic, injective

    def test_how_round_trips_source_type_cores_start(self):
        for width in self.WIDTHS:
            total = _LANE_LIMIT // width  # the largest b + l the guard admits
            for big in self.edges(total + 1):
                self.round_trip(width, big, total - big)

    def round_trip(self, width, big, little):
        sources = itertools.product(self.edges(big + 1), self.edges(little + 1))
        stages = [(CoreType.BIG, u) for u in self.edges(big + 1)[1:]]
        stages += [(CoreType.LITTLE, u) for u in self.edges(little + 1)[1:]]
        for (src_b, src_l), (vtype, cores), start in itertools.product(
            sources, stages, self.edges(width - 1)
        ):
            q = cores - 1 if vtype is CoreType.BIG else big + cores - 1
            source = src_b * (little + 1) + src_l
            how = source << _ACC_L_SHIFT | (q * width + start)
            assert how >= 0
            assert _decode(how, width, big, little) == (
                src_b, src_l, vtype, cores, start
            )


class TestSolveBatch:
    def test_oracle_fixture_bitwise_through_batch_tier(self):
        """The full 1260-cell oracle replays identically through solve_batch."""
        oracle = json.loads(_FIXTURE.read_text())
        chains = []
        for sr in (0.2, 0.5, 0.8):
            cfg = GeneratorConfig(num_tasks=20, stateless_ratio=sr)
            chains.extend(chain_batch(8, cfg, seed=int(sr * 10)))
        chains += [
            g.fully_replicable_chain(12),
            g.fully_sequential_chain(12),
            g.alternating_chain(15),
            g.heavy_tail_chain(10),
            g.inverted_speed_chain(14),
            g.uniform_chain(1),
        ]
        cells = {
            (row["chain"], tuple(row["budget"]), row["strategy"]): row
            for row in oracle["rows"]
        }
        groups = sorted({(budget, name) for _, budget, name in cells})
        mismatches = []
        for budget, name in groups:
            resources = Resources(*budget)
            outcomes = solve_batch(chains, resources, name)
            for index, outcome in enumerate(outcomes):
                row = cells[index, budget, name]
                usage = outcome.solution.core_usage()
                got = {
                    "period_hex": outcome.period.hex(),
                    "usage": [usage.big, usage.little],
                    "render": outcome.solution.render(),
                }
                want = {
                    "period_hex": row["period_hex"],
                    "usage": row["usage"],
                    "render": row["render"],
                }
                if got != want:
                    mismatches.append((index, budget, name, want, got))
        assert not mismatches, (
            f"{len(mismatches)} oracle cells diverged through the batch "
            f"tier; first: {mismatches[0]}"
        )

    @pytest.mark.parametrize("budget", _BUDGETS, ids=str)
    @pytest.mark.parametrize("name", ("2catac", "2catac_memo"))
    def test_twocatac_equals_plain_walk(self, name, budget):
        """Campaign 2CATAC (the memoised walk) vs the paper's Algo. 5."""
        profiles = _mixed_profiles()
        plain = get_strategy("2catac")
        outcomes = solve_batch(profiles, budget, name)
        assert len(outcomes) == len(profiles)
        for profile, got in zip(profiles, outcomes):
            assert _signature(got) == _signature(plain(profile, budget))

    def test_scalar_only_strategy_maps_python(self):
        profiles = _mixed_profiles()[:5]
        resources = Resources(6, 6)
        assert get_info("fertac").batch_func is None
        outcomes = solve_batch(profiles, resources, "fertac")
        for profile, got in zip(profiles, outcomes):
            assert _signature(got) == _signature(
                get_info("fertac").func(profile, resources)
            )

    def test_k3_budget_solves_like_python(self):
        chains = list(
            ktype_chain_batch(4, GeneratorConfig(num_tasks=8), ktype=3, seed=2)
        )
        resources = Resources.from_counts((3, 3, 2))
        outcomes = solve_batch(chains, resources, "2catac")
        solo_fn = get_info("2catac").func
        for chain, got in zip(chains, outcomes):
            assert _signature(got) == _signature(solo_fn(chain, resources))

    def test_two_type_only_strategy_raises_like_python_at_k3(self):
        chains = list(
            ktype_chain_batch(2, GeneratorConfig(num_tasks=6), ktype=3, seed=3)
        )
        resources = Resources.from_counts((3, 3, 2))
        with pytest.raises(InvalidPlatformError):
            solve_batch(chains, resources, "herad")

    def test_empty_batch_is_empty(self):
        assert solve_batch([], Resources(4, 4), "herad") == []

    def test_spans_sub_batches(self):
        """A batch larger than the sub-batch span stays in order."""
        cfg = GeneratorConfig(num_tasks=10, stateless_ratio=0.5)
        profiles = [ChainProfile(c) for c in chain_batch(120, cfg, seed=9)]
        resources = Resources(5, 5)
        for name in ("herad", "2catac"):
            solo_fn = get_info(name).func
            outcomes = solve_batch(profiles, resources, name)
            assert len(outcomes) == len(profiles)
            for profile, got in zip(profiles, outcomes):
                assert _signature(got) == _signature(solo_fn(profile, resources))
