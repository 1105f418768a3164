"""Scaling acceptance: the shared-memory process tier changes nothing but speed.

ISSUE 10's contract, pinned end to end on oracle-grade workloads:

* serial, ``--jobs 2`` and ``--jobs 4`` all produce campaign arrays
  **bitwise identical** to the scalar solvers' (zero-pickle planes,
  cost-adaptive plans, and worker memo shards are pure transport);
* killing a ``--jobs`` process campaign mid-run and resuming through the
  same journal is bitwise identical to an uninterrupted serial run, with
  results flowing through shared memory on both legs;
* the worker memo shard's replayed observations keep the merged ``solve.*``
  counters in cross-tier parity with a serial run of the same campaign.
"""

from __future__ import annotations

import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.registry import STRATEGIES
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
    load_journal,
)
from repro.obs.context import ObsConfig
from repro.workloads import generators as g
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .oracle import ONE_CELL_UNITS
from .oracle import assert_same_arrays as _assert_same_arrays
from .oracle import scalar_arrays

_FAST = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _oracle_chains():
    """The k2 oracle workload mix (diverse shapes, deterministic seeds)."""
    chains = []
    for sr in (0.2, 0.5, 0.8):
        cfg = GeneratorConfig(num_tasks=10, stateless_ratio=sr)
        chains.extend(chain_batch(4, cfg, seed=int(sr * 10)))
    chains += [
        g.fully_replicable_chain(8),
        g.fully_sequential_chain(8),
        g.alternating_chain(9),
        g.heavy_tail_chain(6),
    ]
    return chains


@pytest.fixture(scope="module")
def oracle_setup():
    chains = _oracle_chains()
    resources = Resources(3, 3)
    names = tuple(sorted(STRATEGIES))
    return chains, resources, names, scalar_arrays(chains, resources, names)


class TestBitwiseParity:
    def test_serial_matches_scalar_solvers(self, oracle_setup):
        chains, resources, names, reference = oracle_setup
        arrays = CampaignEngine(
            jobs=1, backend="serial", memo=False
        ).solve_instances(chains, resources, names)
        _assert_same_arrays(arrays, reference)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_process_jobs_match_serial(self, oracle_setup, jobs):
        chains, resources, names, reference = oracle_setup
        arrays = CampaignEngine(
            jobs=jobs, backend="process", memo=False
        ).solve_instances(chains, resources, names)
        _assert_same_arrays(arrays, reference)

    def test_shared_results_off_matches_on(self, oracle_setup):
        """The pickled-rows fallback is the same bits, only slower."""
        chains, resources, names, reference = oracle_setup
        arrays = CampaignEngine(
            jobs=2, backend="process", memo=False, shared_results=False
        ).solve_instances(chains, resources, names)
        _assert_same_arrays(arrays, reference)

    def test_unit_wall_is_advisory(self, oracle_setup):
        """Any unit wall -> a different plan -> the identical arrays."""
        chains, resources, names, reference = oracle_setup
        for wall in (1e-6, 10.0):
            arrays = CampaignEngine(
                jobs=2, backend="process", memo=False, unit_wall=wall
            ).solve_instances(chains, resources, names)
            _assert_same_arrays(arrays, reference)


class TestResumeThroughSharedMemory:
    def test_kill_then_resume_bitwise(self, tmp_path, oracle_setup):
        chains, resources, _, _ = oracle_setup
        names = ("fertac",)
        reference = scalar_arrays(chains, resources, names)

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
        interrupted = CampaignEngine(
            jobs=4, backend="process", memo=False, unit_wall=ONE_CELL_UNITS,
            resilience=ResilienceConfig(retry=_FAST),
            journal=path, faults=plan,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.solve_instances(chains, resources, names)
        interrupted.journal.close()

        # Finished units were journaled from *harvested* shared-memory rows.
        partial = load_journal(path)
        assert 0 < len(partial) < len(chains)

        resumed = CampaignEngine(
            jobs=4, backend="process", memo=False,
            resilience=ResilienceConfig(retry=_FAST), journal=path,
        )
        arrays = resumed.solve_instances(chains, resources, names)
        resumed.journal.close()
        _assert_same_arrays(arrays, reference)
        assert len(load_journal(path)) == len(chains)


class TestShardCounterParity:
    def test_solve_counters_match_serial(self):
        """Shard hits replay their solve observations: merged counters agree."""
        chain = _oracle_chains()[0]
        chains = [chain] * 6  # duplicates guarantee shard hits
        resources = Resources(3, 3)
        names = ("herad",)

        serial = CampaignEngine(
            jobs=1, backend="serial", memo=False, obs=ObsConfig(metrics=True)
        )
        serial.solve_instances(chains, resources, names)
        parallel = CampaignEngine(
            jobs=2, backend="process", memo=False, unit_wall=ONE_CELL_UNITS,
            obs=ObsConfig(metrics=True), worker_memo=True,
        )
        parallel.solve_instances(chains, resources, names)

        serial_counters = serial.obs.metrics.counters()
        parallel_counters = parallel.obs.metrics.counters()
        # The shard actually fired (each of the <= 2 workers solves the
        # first copy it sees and replays the rest)...
        hits = sum(
            value
            for name, value in parallel_counters.items()
            if name.startswith("worker.") and name.endswith(".memo.hits")
        )
        assert hits in (4.0, 5.0)
        # ...yet every deterministic solve.* counter matches serial exactly
        # (worker.* attribution is per-pid bookkeeping, exempt by design;
        # solve.seconds is wall-clock and inherently run-dependent).
        for name, value in serial_counters.items():
            if name.startswith("solve.") and not name.startswith(
                "solve.seconds"
            ):
                assert parallel_counters.get(name) == value, name

        serial_periods = serial.obs.metrics.sketch("solve.period.herad")
        parallel_periods = parallel.obs.metrics.sketch("solve.period.herad")
        assert serial_periods is not None and parallel_periods is not None
        assert parallel_periods.count == serial_periods.count
        assert parallel_periods.minimum == serial_periods.minimum
        assert parallel_periods.maximum == serial_periods.maximum

    @staticmethod
    def _shard_traffic(engine):
        counters = engine.obs.metrics.counters()
        return tuple(
            sum(
                value
                for name, value in counters.items()
                if name.startswith("worker.") and name.endswith(suffix)
            )
            for suffix in (".memo.hits", ".memo.misses")
        )

    def test_shard_is_campaign_scoped_on_a_long_lived_pool(self):
        """The pool outlives a campaign; the shard must not: a re-run of the
        same cells on one engine reads as two fresh engines would."""
        chains = _oracle_chains()
        resources = Resources(3, 3)
        names = ("fertac", "otac_b")

        def engine():
            return CampaignEngine(
                jobs=2, backend="process", memo=False, unit_wall=ONE_CELL_UNITS,
                obs=ObsConfig(metrics=True),
            )

        fresh = [0.0, 0.0]
        for _ in range(2):
            with engine() as one_shot:
                one_shot.solve_instances(chains, resources, names)
                hits, misses = self._shard_traffic(one_shot)
            fresh[0] += hits
            fresh[1] += misses
        with engine() as reused:
            reused.solve_instances(chains, resources, names)
            reused.solve_instances(chains, resources, names)
            assert self._shard_traffic(reused) == tuple(fresh)
        assert tuple(fresh) == (0.0, 2.0 * len(chains) * len(names))

    def test_a_new_epoch_drops_the_previous_shard(self, monkeypatch):
        """Worker memory does not grow with the campaigns a pool serves."""
        from repro.engine import batch
        from repro.engine.batch import PendingInstance, solve_unit, units_from_groups

        monkeypatch.setattr(batch, "_WORKER_MEMO", {})
        chains = _oracle_chains()[:4]
        group = tuple(
            PendingInstance(index=i, chain=chain, strategies=("fertac",))
            for i, chain in enumerate(chains)
        )
        for epoch in (1, 2, 3):
            for budget in (2, 3):  # two units of one campaign share a shard
                (unit,) = units_from_groups(
                    [group], Resources(budget, budget), tier="process",
                    worker_memo=True, epoch=epoch,
                )
                solve_unit(unit)
            assert list(batch._WORKER_MEMO) == [epoch]
            assert len(batch._WORKER_MEMO[epoch]) == 2 * len(chains)
