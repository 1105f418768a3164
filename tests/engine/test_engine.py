"""Tests for the campaign execution engine (fan-out + determinism)."""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import PAPER_ORDER, STRATEGIES
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    MemoCache,
    ResilienceConfig,
    default_engine,
    plan_units,
    reset_default_engine,
    resolve_jobs,
    solve_unit,
    units_from_groups,
)
from repro.engine.batch import PendingInstance, WorkUnit
from repro.experiments.common import run_campaign
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import FaultPlan, FaultSpec, InjectedFault, inject_faults
from .oracle import ONE_CELL_UNITS
from .oracle import assert_same_arrays as _assert_same_arrays
from .oracle import scalar_arrays


def _chains(count=6, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


class TestResolveJobs:
    def test_none_is_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestBatch:
    def test_chunking_covers_everything_in_order(self):
        chains = _chains(5)
        pending = [
            PendingInstance(index=i, chain=c, strategies=("fertac",))
            for i, c in enumerate(chains)
        ]
        # 0.04 s cells against the 0.1 s unit wall: two rows fit a unit.
        groups = plan_units(pending, jobs=2, cost_snapshot=(("fertac", 0.04),))
        units = units_from_groups(groups, Resources(2, 2))
        assert [len(u.pending) for u in units] == [2, 2, 1]
        flat = [item.index for u in units for item in u.pending]
        assert flat == [0, 1, 2, 3, 4]

    def test_solve_unit_rows_are_indexed(self):
        chains = _chains(3)
        unit = WorkUnit(
            pending=tuple(
                PendingInstance(index=i, chain=c, strategies=("fertac", "otac_b"))
                for i, c in enumerate(chains)
            ),
            resources=Resources(2, 2),
            journal=True,
        )
        outcome = solve_unit(unit)
        assert outcome.obs is None  # observability off: no payload shipped
        assert [index for index, _ in outcome.rows] == [0, 1, 2]
        for _, results in outcome.rows:
            assert set(results) == {"fertac", "otac_b"}
            for cell in results.values():
                assert np.isfinite(cell.result.period)
                assert cell.stages[0][0] == 0  # the schedule rides along
        # Unjournaled, the rows are the same results and no schedules.
        bare = solve_unit(dataclasses.replace(unit, journal=False))

        def results_of(rows):
            return [{n: cell.result for n, cell in cells.items()} for _, cells in rows]

        assert results_of(bare.rows) == results_of(outcome.rows)
        assert all(
            cell.stages == () for _, cells in bare.rows for cell in cells.values()
        )


class TestDeterminism:
    """jobs=1 and jobs=N must produce bitwise-identical arrays."""

    @pytest.mark.parametrize("jobs", [pytest.param(2, id="process")])
    def test_parallel_matches_serial_bitwise(self, jobs, unit_wall):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)
        serial = CampaignEngine(jobs=1, memo=False)
        parallel = CampaignEngine(jobs=jobs, memo=False)
        _assert_same_arrays(
            serial.solve_instances(chains, resources, PAPER_ORDER),
            parallel.solve_instances(chains, resources, PAPER_ORDER),
        )

    def test_unit_wall_does_not_matter(self, unit_wall):
        chains = _chains(5)
        resources = Resources(2, 3)
        arrays = []
        for wall in (ONE_CELL_UNITS, 10.0):
            unit_wall(wall)
            engine = CampaignEngine(jobs=2, memo=False)
            arrays.append(
                engine.solve_instances(chains, resources, ("herad", "fertac"))
            )
        _assert_same_arrays(*arrays)

    def test_memo_replay_is_bitwise_identical(self):
        chains = _chains(4)
        resources = Resources(2, 2)
        engine = CampaignEngine(jobs=1, memo=True)
        first = engine.solve_instances(chains, resources, PAPER_ORDER)
        second = engine.solve_instances(chains, resources, PAPER_ORDER)
        _assert_same_arrays(first, second)
        stats = engine.memo.stats
        assert stats.hits == len(chains) * len(PAPER_ORDER)

    def test_run_campaign_jobs_parity(self):
        kwargs = dict(num_chains=5, num_tasks=8, seed=11)
        resources = Resources(3, 2)
        a = run_campaign(
            resources, 0.5, jobs=1,
            engine=CampaignEngine(memo=False), **kwargs,
        )
        b = run_campaign(
            resources, 0.5, jobs=2,
            engine=CampaignEngine(memo=False), **kwargs,
        )
        for name in a.records:
            np.testing.assert_array_equal(
                a.records[name].periods, b.records[name].periods
            )
            np.testing.assert_array_equal(
                a.records[name].big_used, b.records[name].big_used
            )
            np.testing.assert_array_equal(
                a.records[name].little_used, b.records[name].little_used
            )


class TestMemoIntegration:
    def test_partial_hits_only_solve_the_rest(self):
        chains = _chains(4)
        resources = Resources(2, 2)
        memo = MemoCache()
        engine = CampaignEngine(jobs=1, memo=memo)
        engine.solve_instances(chains, resources, ("fertac",))
        assert memo.stats.size == 4
        engine.solve_instances(chains, resources, ("fertac", "otac_b"))
        stats = memo.stats
        assert stats.hits == 4  # fertac replayed
        assert stats.size == 8  # otac_b added

    def test_different_budgets_do_not_collide(self):
        chains = _chains(3)
        engine = CampaignEngine(jobs=1, memo=True)
        a = engine.solve_instances(chains, Resources(1, 1), ("fertac",))
        b = engine.solve_instances(chains, Resources(4, 4), ("fertac",))
        # More cores can only improve (or preserve) the greedy's period.
        assert (b["fertac"].periods <= a["fertac"].periods + 1e-9).all()

    def test_memo_disabled_always_solves(self):
        chains = _chains(3)
        engine = CampaignEngine(jobs=1, memo=False)
        assert engine.memo is None
        first = engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        second = engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        _assert_same_arrays(first, second)

    def test_shared_cache_across_engines(self):
        chains = _chains(3)
        memo = MemoCache()
        CampaignEngine(jobs=1, memo=memo).solve_instances(
            chains, Resources(2, 2), ("fertac",)
        )
        CampaignEngine(jobs=1, memo=memo).solve_instances(
            chains, Resources(2, 2), ("fertac",)
        )
        assert memo.stats.hits == 3


class TestEngineConfig:
    def test_constructor_takes_exactly_five_parameters(self):
        """The tier follows ``jobs`` and the plan ``DEFAULT_UNIT_WALL_S``;
        there is no backend/transport/cache/unit-wall knob, and faults are
        armed from tests (``tests/engine/faults.py``), not passed in."""
        import inspect

        parameters = list(inspect.signature(CampaignEngine.__init__).parameters)
        assert parameters[1:] == ["jobs", "memo", "resilience", "journal", "obs"]

    def test_default_engine_is_a_singleton_until_reset(self):
        reset_default_engine()
        a = default_engine()
        assert default_engine() is a
        reset_default_engine()
        assert default_engine() is not a

    def test_measure_latency_positive_and_unmemoized(self):
        from repro.core.chain_stats import ChainProfile

        profiles = [ChainProfile(c) for c in _chains(3)]
        engine = CampaignEngine(jobs=1, memo=True)
        latency = engine.measure_latency("fertac", profiles, Resources(2, 2))
        assert latency > 0
        assert engine.memo.stats.size == 0  # measurement never populates

    def test_measure_latency_rejects_empty_profiles(self):
        from repro.core.errors import InvalidParameterError

        engine = CampaignEngine(jobs=1)
        with pytest.raises(InvalidParameterError, match="non-empty"):
            engine.measure_latency("fertac", [], Resources(2, 2))


def _shm_segments():
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


class TestEnginePool:
    """One pool per engine: built on first use, reused, retired on close."""

    def test_one_pool_serves_every_campaign_until_it_breaks(self, recording_pool):
        chains = _chains(4)
        with CampaignEngine(jobs=2, memo=False) as engine:
            assert not recording_pool.instances  # lazily, on first dispatch
            for budget in range(1, 10):
                engine.solve_instances(chains, Resources(budget, 2), ("fertac",))
            assert len(recording_pool.instances) == 1

            recording_pool.broken = True
            with pytest.raises(BrokenExecutor):
                engine.solve_instances(chains, Resources(2, 2), ("fertac",))
            recording_pool.broken = False
            # The broken pool was discarded, not handed to the next campaign.
            engine.solve_instances(chains, Resources(2, 2), ("fertac",))
            assert len(recording_pool.instances) == 2

            # Another job count is another pool; the old one is retired.
            engine.solve_instances(chains, Resources(2, 2), ("fertac",), jobs=3)
            assert len(recording_pool.instances) == 3

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="needs a /dev/shm to inspect"
    )
    def test_close_leaves_no_child_process_and_no_segment(self):
        children = set(multiprocessing.active_children())
        segments = _shm_segments()
        engine = CampaignEngine(jobs=2, memo=False)
        engine.solve_instances(_chains(4), Resources(2, 2), ("fertac",))
        workers = set(multiprocessing.active_children()) - children
        assert workers  # the pool outlives its campaign ...
        engine.solve_instances(_chains(4), Resources(3, 2), ("fertac",))
        assert set(multiprocessing.active_children()) - children == workers
        engine.close()  # ... and dies with the engine
        engine.close()  # idempotent
        assert set(multiprocessing.active_children()) - children == set()
        assert _shm_segments() == segments
        # A closed engine stays usable: the next dispatch spawns a new pool.
        arrays = engine.solve_instances(_chains(4), Resources(2, 2), ("fertac",))
        assert np.isfinite(arrays["fertac"].periods).all()
        engine.close()
        assert set(multiprocessing.active_children()) - children == set()

    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "worker-crash"])
    def test_pooled_campaign_starts_no_resource_tracker(
        self, tmp_path, crash, monkeypatch
    ):
        """Pickled rows are the only result transport: a pooled campaign —
        clean, or recovering from a killed worker — never starts
        multiprocessing's resource-tracker process, and a closed engine
        leaves no child process and no ``/dev/shm`` segment behind."""
        from multiprocessing import resource_tracker

        children = set(multiprocessing.active_children())
        segments = _shm_segments()
        chains = _chains(4)
        if crash:
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        kind="crash",
                        fingerprint=chains[1].fingerprint,
                        tiers=("process",),
                        times=1,
                    ),
                ),
                state_dir=str(tmp_path),
            )
            inject_faults(monkeypatch, plan)
        with CampaignEngine(
            jobs=2, memo=False, resilience=ResilienceConfig(attempts=4)
        ) as engine:
            arrays = engine.solve_instances(chains, Resources(2, 2), ("fertac",))
            assert (engine.last_report.retries >= 1) == crash
        _assert_same_arrays(arrays, scalar_arrays(chains, Resources(2, 2), ("fertac",)))
        assert resource_tracker._resource_tracker._pid is None
        assert set(multiprocessing.active_children()) - children == set()
        assert _shm_segments() == segments

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_back_to_back_campaigns_on_one_pool_match_the_oracle(self, jobs):
        chains = _chains(6)
        serial = CampaignEngine(jobs=1, memo=False)
        with CampaignEngine(jobs=jobs, memo=False) as engine:
            for resources in (Resources(3, 3), Resources(2, 5)):
                arrays = engine.solve_instances(chains, resources, PAPER_ORDER)
                _assert_same_arrays(
                    arrays, serial.solve_instances(chains, resources, PAPER_ORDER)
                )
                _assert_same_arrays(
                    arrays, scalar_arrays(chains, resources, PAPER_ORDER)
                )


class TestSentinelPrefill:
    def test_arrays_prefilled_with_sentinels_not_garbage(self):
        """Unsolved cells are NaN/-1, never uninitialized np.empty memory."""
        engine = CampaignEngine(jobs=1, memo=False)
        arrays = engine.solve_instances([], Resources(2, 2), ("fertac",))
        assert arrays["fertac"].periods.shape == (0,)
        # With chains, every cell must be overwritten by a real solve.
        arrays = engine.solve_instances(_chains(3), Resources(2, 2), ("fertac",))
        assert np.isfinite(arrays["fertac"].periods).all()
        assert (arrays["fertac"].big_used >= 0).all()
        assert (arrays["fertac"].little_used >= 0).all()


class TestResilientDeterminism:
    """Resilience enabled + no faults must stay bitwise identical."""

    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial"), pytest.param(4, id="process")]
    )
    def test_fault_free_resilient_matches_serial_bitwise(self, jobs, unit_wall):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)
        serial = CampaignEngine(jobs=1, memo=False)
        resilient = CampaignEngine(
            jobs=jobs,
            memo=False,
            resilience=ResilienceConfig(attempts=3, timeout=60.0,
            ),
        )
        _assert_same_arrays(
            serial.solve_instances(chains, resources, PAPER_ORDER),
            resilient.solve_instances(chains, resources, PAPER_ORDER),
        )
        report = resilient.last_report
        assert report is not None
        assert report.retries == 0
        assert report.timeouts == 0
        assert report.degradations == 0
        assert report.quarantined == 0


class TestKernelTier:
    """The engine's one solve path (strategy groups through ``solve_batch``)
    reproduces the scalar solvers bit for bit, on either tier."""

    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial-1"), pytest.param(4, id="process-4")]
    )
    def test_batch_kernel_bitwise_parity(self, jobs, unit_wall):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)
        engine = CampaignEngine(jobs=jobs, memo=False)
        _assert_same_arrays(
            scalar_arrays(chains, resources, PAPER_ORDER),
            engine.solve_instances(chains, resources, PAPER_ORDER),
        )

    def test_batch_kernel_with_certification(self, monkeypatch):
        """Every batch-produced cell is audited once, and none is changed."""
        from repro.core.chain_stats import ChainProfile
        from repro.engine import batch

        chains = _chains(4)
        resources = Resources(2, 3)
        audited = []
        audit = batch.certify_outcome

        def recording(outcome, profile, *args, **kwargs):
            audited.append((profile.fingerprint, kwargs["context"].split()[0]))
            return audit(outcome, profile, *args, **kwargs)

        monkeypatch.setattr(batch, "certify_outcome", recording)
        engine = CampaignEngine(jobs=1, memo=False)
        _assert_same_arrays(
            scalar_arrays(chains, resources, PAPER_ORDER),
            engine.solve_instances(chains, resources, PAPER_ORDER),
        )
        assert sorted(audited) == sorted(
            (ChainProfile(chain).fingerprint, name)
            for chain in chains
            for name in PAPER_ORDER
        )

    def test_fault_plan_forces_python_path(self, tmp_path, monkeypatch):
        """Faults fire per cell, so an armed strategy leaves its batch
        kernel for the scalar map, where the fault meets every cell."""
        chains = _chains(2)
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", strategy="herad"),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        assert STRATEGIES["herad"].batch_func is None
        unit = WorkUnit(
            pending=tuple(
                PendingInstance(index=i, chain=c, strategies=("herad",))
                for i, c in enumerate(chains)
            ),
            resources=Resources(2, 2),
        )
        with pytest.raises(InjectedFault):
            solve_unit(unit)

    def test_batch_kernel_memo_counters_match_python(self):
        """Bulk memo fills count hits/misses once per cell, on any tier."""
        chains = _chains(5)
        resources = Resources(3, 3)
        cells = len(chains) * len(PAPER_ORDER)

        def run(jobs):
            engine = CampaignEngine(jobs=jobs, memo=MemoCache())
            engine.solve_instances(chains, resources, PAPER_ORDER)
            engine.solve_instances(chains, resources, PAPER_ORDER)
            stats = engine.memo.stats
            return stats.hits, stats.misses, stats.size

        assert run(jobs=1) == (cells, cells, cells)
        assert run(jobs=4) == (cells, cells, cells)

    def test_fingerprints_are_cached_before_dispatch(self, monkeypatch):
        """A chain sits in one unit per strategy, and a pool pickles units
        on a feeder thread while outcomes are handled: a fingerprint cached
        lazily then would mutate a chain mid-pickle."""
        from repro.engine import executor

        seen = []
        build = executor.units_from_groups

        def recording(groups, *args, **kwargs):
            seen.extend(
                "_fingerprint" in vars(item.chain)
                for group in groups
                for item in group
            )
            return build(groups, *args, **kwargs)

        monkeypatch.setattr(executor, "units_from_groups", recording)
        engine = CampaignEngine(jobs=1, memo=False)
        engine.solve_instances(_chains(3), Resources(2, 2), ("fertac",))
        assert seen and all(seen)
