"""Shared-memory result planes: layout, lifecycle, and leak guarantees.

The zero-pickle transport (:mod:`repro.engine.shm`) is only sound if three
properties hold everywhere:

* **round-trip fidelity** — a cell written through a worker-side
  :class:`~repro.engine.shm.PlaneView` reads back the identical
  ``InstanceResult`` (float64 round-trips bitwise), including the
  ``extra_used`` tail on k-type budgets;
* **sentinel discipline** — unwritten cells are visibly unsolved
  (NaN period) and harvest simply skips them, mirroring quarantine;
* **no leaks, ever** — the engine unlinks its segments on the normal path,
  on worker crashes, on ``KeyboardInterrupt``, and when the resilience
  ladder degrades process → thread (the descriptor is stripped from retried
  units and the segments destroyed before the thread pass starts).
"""

from __future__ import annotations

import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    FaultPlan,
    FaultSpec,
    InstanceResult,
    ResilienceConfig,
    RetryPolicy,
)
from repro.engine.shm import PlaneDescriptor, ResultPlanes
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .oracle import ONE_CELL_UNITS

_FAST = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _chains(count, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


class _Cell:
    """Minimal PendingInstance stand-in for harvest (index + strategies)."""

    def __init__(self, index, strategies):
        self.index = index
        self.strategies = strategies


class TestPlaneRoundTrip:
    def test_write_read_identical(self):
        planes = ResultPlanes.allocate(("a", "b"), chains=4, ktype=2)
        assert planes is not None
        try:
            view = planes.descriptor.open()
            try:
                result = InstanceResult(period=3.141592653589793, big_used=2,
                                        little_used=1)
                view.write(3, "b", result)
                assert view.read(3, "b") == result
            finally:
                view.close()
        finally:
            planes.destroy()

    def test_ktype_extra_used_tail(self):
        planes = ResultPlanes.allocate(("a",), chains=2, ktype=4)
        assert planes is not None
        try:
            view = planes.descriptor.open()
            try:
                result = InstanceResult(
                    period=7.25, big_used=3, little_used=2, extra_used=(1, 4)
                )
                view.write(0, "a", result)
                got = view.read(0, "a")
                assert got == result
                assert isinstance(got.period, float)
                assert isinstance(got.big_used, int)
            finally:
                view.close()
        finally:
            planes.destroy()

    def test_unwritten_cell_reads_none(self):
        planes = ResultPlanes.allocate(("a",), chains=2, ktype=2)
        assert planes is not None
        try:
            view = planes.descriptor.open()
            try:
                assert view.read(1, "a") is None
            finally:
                view.close()
        finally:
            planes.destroy()

    def test_harvest_skips_sentinel_cells(self):
        planes = ResultPlanes.allocate(("a", "b"), chains=3, ktype=2)
        assert planes is not None
        try:
            view = planes.descriptor.open()
            try:
                view.write(0, "a", InstanceResult(1.0, 1, 0))
                view.write(2, "b", InstanceResult(2.0, 2, 1))
            finally:
                view.close()
            rows = planes.harvest(
                [_Cell(0, ("a", "b")), _Cell(2, ("a", "b"))]
            )
            assert rows == [
                (0, {"a": InstanceResult(1.0, 1, 0)}),
                (2, {"b": InstanceResult(2.0, 2, 1)}),
            ]
        finally:
            planes.destroy()

    def test_allocate_empty_returns_none(self):
        assert ResultPlanes.allocate((), chains=4, ktype=2) is None
        assert ResultPlanes.allocate(("a",), chains=0, ktype=2) is None


class TestLifecycle:
    def test_destroy_is_idempotent_and_unlinks(self):
        planes = ResultPlanes.allocate(("a",), chains=1, ktype=2)
        assert planes is not None
        descriptor = planes.descriptor
        planes.destroy()
        planes.destroy()  # second call is a no-op, not an error
        with pytest.raises(FileNotFoundError):
            descriptor.open()

    def test_harvest_after_destroy_raises(self):
        planes = ResultPlanes.allocate(("a",), chains=1, ktype=2)
        assert planes is not None
        planes.destroy()
        with pytest.raises(RuntimeError):
            planes.harvest([_Cell(0, ("a",))])

    def test_descriptor_usage_width_floor(self):
        descriptor = PlaneDescriptor(
            periods_name="x", usage_name="y", strategies=("a",),
            chains=1, ktype=1,
        )
        assert descriptor.usage_width == 2


def _leak_recorder(monkeypatch):
    """Record every allocation so tests can assert the segments are gone."""
    allocated = []
    original = ResultPlanes.allocate.__func__

    def recording(cls, strategies, chains, ktype):
        planes = original(cls, strategies, chains, ktype)
        if planes is not None:
            allocated.append(planes.descriptor)
        return planes

    monkeypatch.setattr(
        ResultPlanes, "allocate", classmethod(recording)
    )
    return allocated


def _assert_all_unlinked(descriptors):
    assert descriptors, "campaign never allocated planes"
    for descriptor in descriptors:
        with pytest.raises(FileNotFoundError):
            descriptor.open()


class TestNoLeaks:
    def test_normal_campaign_unlinks(self, monkeypatch):
        allocated = _leak_recorder(monkeypatch)
        chains = _chains(8)
        engine = CampaignEngine(jobs=2, backend="process", memo=False)
        engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        _assert_all_unlinked(allocated)

    def test_worker_crash_unlinks(self, monkeypatch, tmp_path):
        allocated = _leak_recorder(monkeypatch)
        chains = _chains(8)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="crash",
                    fingerprint=ChainProfile(chains[3]).fingerprint,
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=str(tmp_path / "faults"),
        )
        engine = CampaignEngine(
            jobs=2, backend="process", memo=False, unit_wall=ONE_CELL_UNITS,
            resilience=ResilienceConfig(retry=_FAST), faults=plan,
        )
        engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        _assert_all_unlinked(allocated)

    def test_worker_interrupt_unlinks(self, monkeypatch, tmp_path):
        allocated = _leak_recorder(monkeypatch)
        chains = _chains(8)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="interrupt",
                    fingerprint=ChainProfile(chains[3]).fingerprint,
                    tiers=("process",),
                    times=1,
                ),
            ),
            state_dir=str(tmp_path / "faults"),
        )
        engine = CampaignEngine(
            jobs=2, backend="process", memo=False, unit_wall=ONE_CELL_UNITS,
            resilience=ResilienceConfig(retry=_FAST), faults=plan,
        )
        with pytest.raises(KeyboardInterrupt):
            engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        _assert_all_unlinked(allocated)

    def test_degradation_to_thread_unlinks_and_strips(
        self, monkeypatch, tmp_path
    ):
        """Process -> thread fallback retires the planes mid-campaign."""
        allocated = _leak_recorder(monkeypatch)
        chains = _chains(8)
        # A crash that outlives the process tier's whole retry budget forces
        # the ladder down to the thread tier, where the fault stops firing.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="crash",
                    fingerprint=ChainProfile(chains[3]).fingerprint,
                    tiers=("process",),
                    times=_FAST.max_attempts,
                ),
            ),
            state_dir=str(tmp_path / "faults"),
        )
        engine = CampaignEngine(
            jobs=2, backend="process", memo=False, unit_wall=ONE_CELL_UNITS,
            resilience=ResilienceConfig(retry=_FAST), faults=plan,
        )
        arrays = engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        assert engine.last_report is not None
        assert engine.last_report.degradations >= 1
        # Every cell still solved (the thread pass rescued the crashed unit).
        assert not any(p != p for p in arrays["fertac"].periods)  # no NaN
        _assert_all_unlinked(allocated)
