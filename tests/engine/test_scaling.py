"""Scaling acceptance: the process tier changes nothing but speed.

Pinned end to end on oracle-grade workloads:

* serial and ``--jobs 2`` / ``4`` / ``8`` all produce campaign arrays
  **bitwise identical** to the scalar solvers' (cost-adaptive plans and
  pickled result rows are pure transport);
* killing a ``--jobs`` process campaign mid-run and resuming through the
  same journal is bitwise identical to an uninterrupted serial run.
"""

from __future__ import annotations

import pytest
from tests import chain_shapes as g

from repro.core.chain_stats import ChainProfile
from repro.core.registry import STRATEGIES
from repro.core.types import Resources
from repro.engine import (
    DEFAULT_UNIT_WALL_S,
    CampaignEngine,
    ResilienceConfig,
    RetryPolicy,
    load_journal,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import FaultPlan, FaultSpec, inject_faults
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
        arrays = CampaignEngine(jobs=1, memo=False).solve_instances(
            chains, resources, names
        )
        _assert_same_arrays(arrays, reference)

    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_process_jobs_match_serial(self, oracle_setup, jobs):
        chains, resources, names, reference = oracle_setup
        arrays = CampaignEngine(jobs=jobs, memo=False).solve_instances(
            chains, resources, names
        )
        _assert_same_arrays(arrays, reference)

    def test_unit_wall_is_advisory(self, oracle_setup, unit_wall):
        """Any unit wall -> a different plan -> the identical arrays."""
        chains, resources, names, reference = oracle_setup
        for wall in (1e-6, 10.0):
            unit_wall(wall)
            arrays = CampaignEngine(jobs=2, memo=False).solve_instances(
                chains, resources, names
            )
            _assert_same_arrays(arrays, reference)


class TestResumeThroughJournal:
    """Kill a process-tier campaign mid-run, resume it through its journal."""

    def test_kill_then_resume_bitwise(
        self, tmp_path, oracle_setup, unit_wall, monkeypatch
    ):
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
        unit_wall(ONE_CELL_UNITS)
        inject_faults(monkeypatch, plan)
        interrupted = CampaignEngine(
            jobs=4, memo=False,
            resilience=ResilienceConfig(retry=_FAST),
            journal=path,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.solve_instances(chains, resources, names)
        interrupted.journal.close()

        # Units finished before the kill were journaled.
        partial = load_journal(path)
        assert 0 < len(partial) < len(chains)

        unit_wall(DEFAULT_UNIT_WALL_S)
        resumed = CampaignEngine(
            jobs=4, memo=False,
            resilience=ResilienceConfig(retry=_FAST), journal=path,
        )
        arrays = resumed.solve_instances(chains, resources, names)
        resumed.journal.close()
        _assert_same_arrays(arrays, reference)
        assert len(load_journal(path)) == len(chains)
