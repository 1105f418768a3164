"""Tests for retry/degradation/quarantine recovery (repro.engine.resilience).

Every recovery path is *provoked* with a deterministic fault plan
(``tests/engine/faults.py``, armed through the strategy registry and every
pool worker's initializer) rather than merely reasoned about: transient
raise → retry succeeds; worker crash → process pool rebuilt; hang → soft
deadline abandons and retries; tier-scoped persistent failure → serial
rung; deterministic bug → quarantine with sentinel cells; corrupt claim →
certification rejects, re-solve recovers.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.errors import (
    CertificationError,
    InfeasibleScheduleError,
    InvalidChainError,
    InvalidParameterError,
    SchedulingError,
)
from repro.core.registry import PAPER_ORDER, solve_batch
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    ResilienceConfig,
    batch,
    is_transient,
    load_journal,
    resilience,
)
from repro.engine import pool as pool_mod
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import FaultPlan, FaultSpec, InjectedFault, inject_faults
from .oracle import ONE_CELL_UNITS


def _chains(count=4, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


def _fingerprint(chain):
    return ChainProfile(chain).fingerprint


#: Soft deadline of the hang tests: well above spawning three workers and a
#: one-cell solve on a loaded box, well below the injected hang.
_DEADLINE = 1.0


def _reference(chains, resources, strategies=("fertac",)):
    return CampaignEngine(jobs=1, memo=False).solve_instances(
        chains, resources, strategies
    )


def _assert_same_arrays(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].periods, b[name].periods)
        np.testing.assert_array_equal(a[name].big_used, b[name].big_used)
        np.testing.assert_array_equal(a[name].little_used, b[name].little_used)


class TestRetryPolicy:
    """The retry policy is ``ResilienceConfig.attempts`` plus a backoff
    schedule of module constants, patched here as ``--retries`` never sets
    them."""

    def test_rejects_bad_attempts(self):
        with pytest.raises(InvalidParameterError):
            ResilienceConfig(attempts=0)

    def test_delay_doubles_and_caps(self, monkeypatch):
        monkeypatch.setattr(resilience, "BASE_DELAY", 0.1)
        monkeypatch.setattr(resilience, "MAX_DELAY", 0.35)
        monkeypatch.setattr(resilience, "JITTER", 0.0)
        assert resilience._backoff(0) == pytest.approx(0.1)
        assert resilience._backoff(1) == pytest.approx(0.2)
        assert resilience._backoff(2) == pytest.approx(0.35)  # capped
        assert resilience._backoff(10) == pytest.approx(0.35)

    def test_jitter_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr(resilience, "BASE_DELAY", 0.1)
        monkeypatch.setattr(resilience, "SEED", 7)
        for retry in range(4):
            first = resilience._backoff(retry, token="process")
            assert first == resilience._backoff(retry, token="process")
            raw = min(resilience.MAX_DELAY, 0.1 * 2**retry)
            assert 0.5 * raw <= first < raw

    def test_jitter_varies_with_seed_and_token(self, monkeypatch):
        monkeypatch.setattr(resilience, "BASE_DELAY", 0.05)
        a = resilience._backoff(0, token="x")
        c = resilience._backoff(0, token="y")
        monkeypatch.setattr(resilience, "SEED", 1)
        b = resilience._backoff(0, token="x")
        assert len({a, b, c}) == 3


class TestClassification:
    def test_transient_failures(self):
        for exc in (
            InjectedFault("x"),
            BrokenProcessPool("x"),
            pickle.PicklingError("x"),
            EOFError(),
            ConnectionResetError(),
            TimeoutError(),
            CertificationError("x"),
        ):
            assert is_transient(exc), exc

    def test_deterministic_failures(self):
        for exc in (
            SchedulingError("x"),
            InvalidChainError("x"),
            InfeasibleScheduleError("x"),
            ValueError("x"),
            KeyError("x"),
        ):
            assert not is_transient(exc), exc


class TestConfig:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(InvalidParameterError):
            ResilienceConfig(timeout=0.0)


class TestRetryRecovery:
    def test_transient_fault_retries_to_bitwise_recovery(self, tmp_path, monkeypatch):
        chains = _chains(4)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", times=1),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=2,
            memo=False,
            resilience=ResilienceConfig(),
        )
        arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, reference)
        report = engine.last_report
        assert report is not None
        assert report.retries >= 1
        assert report.quarantined == 0
        assert engine.failures == ()

    def test_worker_crash_rebuilds_process_pool(self, tmp_path, monkeypatch):
        """A hard-killed worker (BrokenProcessPool) is retried, not fatal."""
        chains = _chains(4)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="crash",
                    fingerprint=_fingerprint(chains[1]),
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=2,
            memo=False,
            resilience=ResilienceConfig(attempts=4),
        )
        arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, reference)
        report = engine.last_report
        assert report is not None
        assert report.retries >= 1
        assert report.quarantined == 0

    def test_hang_is_abandoned_at_soft_deadline(self, tmp_path, unit_wall, monkeypatch):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(3)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="hang",
                    fingerprint=_fingerprint(chains[0]),
                    tiers=("process",),
                    seconds=5.0,
                    times=1,
                ),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=3,
            memo=False,
            resilience=ResilienceConfig(timeout=_DEADLINE),
        )
        arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, reference)
        report = engine.last_report
        assert report is not None
        assert report.timeouts >= 1
        assert report.quarantined == 0


class TestSpawnedWorkers:
    def test_process_fault_fires_in_spawned_workers(self, tmp_path, monkeypatch):
        """The seam does not lean on ``fork``: a ``spawn`` worker imports a
        clean registry, and the pool initializer alone arms it."""
        chains = _chains(2, num_tasks=4)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        spawn = multiprocessing.get_context("spawn")

        class SpawnPool(pool_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                kwargs.setdefault("mp_context", spawn)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", SpawnPool)
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", tiers=("process",), times=1),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        with CampaignEngine(
            jobs=2, memo=False, resilience=ResilienceConfig()
        ) as engine:
            arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, reference)
        report = engine.last_report
        assert report is not None
        # One unit of both cells: each chain's one firing fails one attempt,
        # and only a worker can fire a process-tier fault.
        assert report.retries == len(chains)
        assert report.degradations == 0
        assert report.quarantined == 0


class TestPoolHygiene:
    """A dirty round's workers never serve another round or campaign."""

    def test_timed_out_round_does_not_hand_workers_on(
        self, tmp_path, recording_pool, unit_wall, monkeypatch
    ):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(3)
        resources = Resources(2, 2)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="hang",
                    fingerprint=_fingerprint(chains[0]),
                    tiers=("process",),
                    seconds=3.0,
                    times=1,
                ),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=3,
            memo=False,
            resilience=ResilienceConfig(timeout=_DEADLINE),
        )
        engine.solve_instances(chains, resources, ("fertac",))
        assert engine.last_report is not None
        assert engine.last_report.timeouts >= 1
        hung, fresh = recording_pool.instances
        # The round that timed out dropped its pool without waiting on it...
        assert hung.shutdown_calls == [(False, True)]
        assert fresh.shutdown_calls == []
        # ...and the next campaign runs on the clean retry pool, not the hung one.
        arrays = engine.solve_instances(chains, Resources(3, 2), ("fertac",))
        _assert_same_arrays(arrays, _reference(chains, Resources(3, 2)))
        assert recording_pool.instances == [hung, fresh]
        engine.close()
        assert fresh.shutdown_calls == [(True, False)]

    def test_interrupt_commits_finished_units_and_leaves_no_pool(
        self, tmp_path, unit_wall, monkeypatch
    ):
        unit_wall(ONE_CELL_UNITS)
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        chains = _chains(6)
        resources = Resources(2, 2)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="interrupt",
                    fingerprint=_fingerprint(chains[4]),
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=str(tmp_path / "faults"),
        )
        path = tmp_path / "run.jsonl"
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=2,
            memo=False,
            resilience=ResilienceConfig(),
            journal=path,
        )
        with pytest.raises(KeyboardInterrupt):
            engine.solve_instances(chains, resources, ("fertac",))
        # Units finished before the Ctrl-C are on disk; the pool is gone
        # without anyone calling close().
        assert len(load_journal(path)) == len(chains) - 1
        # The abandoned executor's manager thread joins these same workers;
        # reaping them from here as well races it (a join() here can
        # return before the exit code is stored, and active_children()
        # then lists a dead process).  So wait for the threads the campaign
        # left behind to finish — the manager exits once every worker is
        # joined — and only then look.  The timeout only bounds a failure.
        for thread in set(threading.enumerate()) - threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), thread
        assert set(multiprocessing.active_children()) - children == set()
        # The engine survives: the rest resumes through the same journal on
        # a fresh pool.
        arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, _reference(chains, resources))
        engine.close()
        engine.journal.close()


class TestDegradation:
    def test_persistent_process_failure_degrades_to_serial(
        self, tmp_path, recording_pool, monkeypatch
    ):
        """A unit that fails every process-tier attempt is solved cell by
        cell on the in-process cell rung: one degradation, and no other pool
        built."""
        chains = _chains(3)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", tiers=("process",), times=50),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=2,
            memo=False,
            resilience=ResilienceConfig(),
        )
        arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, reference)
        report = engine.last_report
        assert report is not None
        assert report.retries == ResilienceConfig().attempts
        assert report.degradations == 1
        assert report.quarantined == 0
        # InjectedFault is an ordinary exception: the pool stays healthy, so
        # every retry round reused the one process pool.
        assert len(recording_pool.instances) == 1
        engine.close()


def _counters(report):
    return {
        "retries": report.retries,
        "timeouts": report.timeouts,
        "degradations": report.degradations,
        "quarantined": report.quarantined,
    }


class TestQuarantine:
    """Same fault, same report on both tiers: a unit round fails, the cell
    rung isolates the cell and quarantines it.  Only ``degradations``
    differs — leaving the process tier for the cell rung is a tier switch,
    staying in-process is not."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_bug_is_quarantined_with_sentinels(
        self, jobs, tmp_path, monkeypatch
    ):
        chains = _chains(4)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        bad = _fingerprint(chains[2])
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="bug", fingerprint=bad, strategy="fertac", times=50),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        with CampaignEngine(
            jobs=jobs, memo=False, resilience=ResilienceConfig()
        ) as engine:
            arrays = engine.solve_instances(chains, resources, ("fertac",))

        # The failed cell keeps its sentinels ...
        assert np.isnan(arrays["fertac"].periods[2])
        assert arrays["fertac"].big_used[2] == -1
        assert arrays["fertac"].little_used[2] == -1
        # ... and every other cell matches the fault-free reference.
        for i in (0, 1, 3):
            assert arrays["fertac"].periods[i] == reference["fertac"].periods[i]

        report = engine.last_report
        assert report is not None
        assert _counters(report) == {
            "retries": 0, "timeouts": 0, "degradations": jobs - 1, "quarantined": 1,
        }
        (record,) = report.failures
        assert record.index == 2
        assert record.fingerprint == bad
        assert record.strategy == "fertac"
        assert record.error_type == "SchedulingError"
        assert record.tier == "serial"
        # Deterministic failures skip the retry budget: one attempt as a
        # unit, one as a cell.
        assert record.attempts == 2
        assert engine.failures == (record,)
        engine.clear_failures()
        assert engine.failures == ()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_transient_fault_is_quarantined(
        self, jobs, tmp_path, monkeypatch
    ):
        """A transient fault that never stops firing ends in quarantine,
        after every attempt as a unit and then every attempt as a cell."""
        chains = _chains(2)
        resources = Resources(2, 2)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="raise", fingerprint=_fingerprint(chains[0]), times=500
                ),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        config = ResilienceConfig()
        with CampaignEngine(jobs=jobs, memo=False, resilience=config) as engine:
            arrays = engine.solve_instances(chains, resources, ("fertac",))
        assert np.isnan(arrays["fertac"].periods[0])
        assert np.isfinite(arrays["fertac"].periods[1])
        assert _counters(engine.last_report) == {
            "retries": 2 * config.attempts,
            "timeouts": 0,
            "degradations": jobs - 1,
            "quarantined": 1,
        }
        (record,) = engine.failures
        assert record.error_type == "InjectedFault"
        assert record.attempts == 2 * config.attempts


class TestUnitRounds:
    def test_hardened_serial_campaign_solves_each_strategy_batch_once(
        self, monkeypatch
    ):
        """A hardened ``jobs=1`` campaign runs whole strategy batches, as a
        lean one does: HeRAD's batch DP and 2CATAC's memoised walk see the
        whole batch, one ``solve_batch`` call per strategy."""
        calls = []

        def recording(profiles, resources, name):
            calls.append((name, len(profiles)))
            return solve_batch(profiles, resources, name)

        monkeypatch.setattr(batch, "solve_batch", recording)
        chains = _chains(5)
        with CampaignEngine(
            jobs=1, memo=False, resilience=ResilienceConfig()
        ) as engine:
            engine.solve_instances(chains, Resources(3, 2), PAPER_ORDER)
        assert calls == [(name, len(chains)) for name in PAPER_ORDER]
        assert _counters(engine.last_report) == {
            "retries": 0, "timeouts": 0, "degradations": 0, "quarantined": 0,
        }


class TestCorruptionRecovery:
    def test_certify_catches_corrupt_then_resolve_recovers(self, tmp_path, monkeypatch):
        """The audit turns a corrupt claim into a recoverable transient."""
        chains = _chains(3)
        resources = Resources(2, 2)
        reference = _reference(chains, resources)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="corrupt",
                    fingerprint=_fingerprint(chains[1]),
                    times=1,
                ),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=1,
            memo=False,
            resilience=ResilienceConfig(),
        )
        arrays = engine.solve_instances(chains, resources, ("fertac",))
        _assert_same_arrays(arrays, reference)
        report = engine.last_report
        assert report is not None
        assert report.retries >= 1
        assert report.quarantined == 0
