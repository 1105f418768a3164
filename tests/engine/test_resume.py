"""Acceptance tests: interrupt a parallel campaign mid-run, resume bitwise.

ISSUE 3's headline guarantee: killing a ``--jobs 8`` process-tier campaign
mid-run and re-running with the same journal produces arrays bitwise
identical to an uninterrupted serial run.  The kill is provoked with a
deterministic ``interrupt`` fault (a Ctrl-C raised inside a worker), which
also proves the retry machinery never swallows ``KeyboardInterrupt`` and
that pools are shut down with ``cancel_futures`` on the way out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    ResilienceConfig,
    load_journal,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import FaultPlan, FaultSpec, inject_faults
from .oracle import ONE_CELL_UNITS


def _chains(count, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


def _assert_same_arrays(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].periods, b[name].periods)
        np.testing.assert_array_equal(a[name].big_used, b[name].big_used)
        np.testing.assert_array_equal(a[name].little_used, b[name].little_used)


class TestInterruptAndResume:
    def test_killed_process_campaign_resumes_bitwise(
        self, tmp_path, unit_wall, monkeypatch
    ):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(16)
        resources = Resources(2, 2)
        reference = CampaignEngine(jobs=1, memo=False).solve_instances(
            chains, resources, ("fertac",)
        )

        # A Ctrl-C fired inside one worker process, mid-campaign.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="interrupt",
                    fingerprint=ChainProfile(chains[9]).fingerprint,
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=str(tmp_path / "faults"),
        )
        path = tmp_path / "run.jsonl"
        inject_faults(monkeypatch, plan)
        interrupted = CampaignEngine(
            jobs=8,
            memo=False,
            resilience=ResilienceConfig(),
            journal=path,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.solve_instances(chains, resources, ("fertac",))
        interrupted.journal.close()

        # The journal kept every completed chunk, minus the interrupted one.
        partial = load_journal(path)
        assert 0 < len(partial) < len(chains)

        # Resume with a fresh engine: replay + solve the remainder.
        resumed = CampaignEngine(
            jobs=8,
            memo=False,
            resilience=ResilienceConfig(),
            journal=path,
        )
        arrays = resumed.solve_instances(chains, resources, ("fertac",))
        resumed.journal.close()
        _assert_same_arrays(arrays, reference)
        assert len(load_journal(path)) == len(chains)

    def test_rows_appended_after_a_torn_tail_stay_loadable(self, tmp_path):
        """A kill mid-write tears the last row; the resume must not glue its
        first row onto that tail (both would be lost to every later load)."""
        chains = _chains(6)
        path = tmp_path / "run.jsonl"

        def rows_written(count):
            engine = CampaignEngine(jobs=1, memo=False, journal=path)
            engine.solve_instances(chains[:count], Resources(2, 2), ("fertac",))
            engine.journal.close()
            return engine.journal.rows_written

        assert rows_written(3) == 3
        path.write_text(path.read_text()[:-20])  # tear the third row
        assert rows_written(6) == 4
        assert len(load_journal(path)) == len(path.read_text().splitlines()) == 6
        assert rows_written(6) == 0

    def test_interrupt_on_serial_tier_propagates(self, tmp_path, monkeypatch):
        """The retry loop classifies only Exception: a Ctrl-C escapes it."""
        chains = _chains(4)
        plan = FaultPlan(
            specs=(FaultSpec(kind="interrupt", times=1),),
            state_dir=str(tmp_path / "faults"),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=1,
            memo=False,
            resilience=ResilienceConfig(),
        )
        with pytest.raises(KeyboardInterrupt):
            engine.solve_instances(chains, Resources(2, 2), ("fertac",))


class TestCleanShutdown:
    def test_interrupted_pool_is_cancelled_not_leaked(
        self, tmp_path, recording_pool, unit_wall, monkeypatch
    ):
        """On Ctrl-C the pool is shut down with cancel_futures=True and the

        journal retains every chunk that finished before the interrupt.
        """
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="interrupt",
                    fingerprint=ChainProfile(chains[4]).fingerprint,
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
            engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        engine.journal.close()

        # The dirty round's pool was torn down without waiting on workers.
        (pool,) = recording_pool.instances
        assert pool.shutdown_calls == [(False, True)]
        # Chunks completed before the escalation survived in the journal.
        assert len(load_journal(path)) == len(chains) - 1
