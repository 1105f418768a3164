"""Engine + observability: bitwise parity, span coverage, exact counters.

The contract under test (DESIGN.md §10): instrumentation is recorded *about*
the campaign and never consulted by it — results are bitwise identical with
observability on or off, on either tier — and counters merged from worker
payloads are *exact*, not sampled: a ``--jobs 4`` process campaign reports
the same numbers as the serial run, even with faults firing.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import CampaignEngine, ResilienceConfig
from repro.obs import Observability, ObsConfig, counter_add
from repro.obs import clock as obs_clock
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.profile import validate_flamegraph, write_flamegraph
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import FaultPlan, FaultSpec, inject_faults
from .oracle import ONE_CELL_UNITS
from .oracle import assert_same_arrays as _assert_same_arrays
from .oracle import scalar_outcomes


def _chains(count=6, num_tasks=8, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=0.5)
    return list(chain_batch(count, config, seed=seed))


def _resilience_counters(engine):
    return {
        name: value
        for name, value in engine.obs.metrics.counters().items()
        if name.startswith("resilience.")
    }


class TestBitwiseParity:
    """Tracing on vs off must not change a single result bit."""

    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial-1"), pytest.param(4, id="process-4")]
    )
    def test_traced_matches_untraced(self, jobs, unit_wall):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)
        plain = CampaignEngine(jobs=jobs, memo=False)
        traced = CampaignEngine(jobs=jobs, memo=False, obs=True)
        _assert_same_arrays(
            plain.solve_instances(chains, resources, PAPER_ORDER),
            traced.solve_instances(chains, resources, PAPER_ORDER),
        )


def _recording_clock(monkeypatch):
    """Route every ``repro`` module's :func:`repro.obs.clock.monotonic` (the
    tracer's ``_clock`` included) through a wrapper that still returns the
    real reading and logs each one taken on this thread; returns the
    wrapper and the log."""
    real = obs_clock.monotonic
    readings = []
    here = threading.get_ident()

    def read():
        value = real()
        if threading.get_ident() == here:
            readings.append(value)
        return value

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, read)
    return read, readings


class TestSpanCoverage:
    def test_root_span_covers_the_campaign_wall_time(self, monkeypatch):
        """The root span opens on the campaign's first clock reading and
        closes on its last: nothing the campaign times lies outside it."""
        read, readings = _recording_clock(monkeypatch)
        chains = _chains(6)
        engine = CampaignEngine(jobs=2, memo=False, obs=True)
        read()
        engine.solve_instances(chains, Resources(3, 3), PAPER_ORDER)
        read()
        spans = engine.obs.spans()
        (root,) = [span for span in spans if span.name == "campaign"]
        assert len(readings) > 4  # the campaign timed more than its root
        assert (root.start, root.end) == (readings[1], readings[-2])
        # Worker spans land inside the root span's window.
        for span in spans:
            assert span.start >= root.start - 1e-9
            assert span.end <= root.end + 1e-9

    def test_trace_of_a_process_campaign_is_chrome_valid(self, tmp_path):
        chains = _chains(6)
        engine = CampaignEngine(jobs=2, memo=False, obs=True)
        engine.solve_instances(chains, Resources(3, 3), ("herad", "fertac"))
        spans = engine.obs.spans()
        document = to_chrome_trace(spans, engine.obs.metrics.snapshot())
        assert validate_chrome_trace(document) == []
        groups = [s for s in spans if s.name == "solve_batch"]
        assert sum(s.attr_dict()["instances"] for s in groups) == 12
        # ... and, with the workers' spans in it, a valid flamegraph on disk.
        assert {"campaign", "unit"} <= {s.name for s in spans}
        write_flamegraph(tmp_path / "run.folded", spans)
        folded = (tmp_path / "run.folded").read_text().splitlines()
        assert folded and validate_flamegraph(folded, spans) == []

    @pytest.mark.parametrize("journal", [False, True], ids=["one-unit", "journaled"])
    def test_serial_units_nest_under_the_campaign_span(
        self, journal, unit_wall, tmp_path
    ):
        """An in-process unit runs inside the campaign span, so its spans
        hang under it: one forest, rooted at ``campaign``, with each
        ``unit`` one level down (no clock is read to decide this)."""
        unit_wall(ONE_CELL_UNITS)
        engine = CampaignEngine(
            jobs=1,
            memo=False,
            journal=tmp_path / "run.jsonl" if journal else None,
            obs=True,
        )
        engine.solve_instances(_chains(4), Resources(3, 3), ("herad", "fertac"))
        spans = engine.obs.spans()
        by_key = {(s.pid, s.span_id): s for s in spans}
        (campaign,) = [s for s in spans if s.name == "campaign"]
        units = [s for s in spans if s.name == "unit"]
        assert len(units) == (8 if journal else 1)
        for unit in units:
            assert unit.parent_id == campaign.span_id
            assert unit.depth == campaign.depth + 1
        for span in spans:
            if span.parent_id is not None:
                parent = by_key[(span.pid, span.parent_id)]
                assert span.depth == parent.depth + 1
        assert [s.name for s in spans if s.parent_id is None] == ["campaign"]

    def test_pooled_units_stay_on_their_worker_lanes(self):
        """A pool worker's spans keep the worker's pid and their own roots."""
        engine = CampaignEngine(jobs=2, memo=False, obs=True)
        with engine:
            engine.solve_instances(_chains(4), Resources(3, 3), ("herad", "fertac"))
        spans = engine.obs.spans()
        (campaign,) = [s for s in spans if s.name == "campaign"]
        units = [s for s in spans if s.name == "unit"]
        assert units
        for unit in units:
            assert unit.pid != campaign.pid
            assert (unit.parent_id, unit.depth) == (None, 0)

    def test_serial_rung_spans_form_one_forest(
        self, unit_wall, tmp_path, monkeypatch
    ):
        """A unit that fails every round is solved on the cell rung, each
        cell as a one-cell unit with its own tracer; the unit's merged
        payload must still renumber them: ``(pid, span_id)`` is unique and
        every ``parent_id`` resolves."""
        unit_wall(1e9)  # one unit of all twelve cells
        chains = _chains(6)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="raise",
                    fingerprint=ChainProfile(chains[0]).fingerprint,
                    strategy="herad",
                    times=2,
                ),
            ),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        engine = CampaignEngine(
            jobs=1,
            memo=False,
            resilience=ResilienceConfig(attempts=2),
            obs=True,
        )
        engine.solve_instances(chains, Resources(3, 3), ("herad", "fertac"))
        assert engine.last_report.retries == 2  # both unit rounds
        spans = engine.obs.spans()
        by_key = {(s.pid, s.span_id): s for s in spans}
        assert len(by_key) == len(spans)
        for span in spans:
            if span.parent_id is not None:
                assert (span.pid, span.parent_id) in by_key
        groups = [s for s in spans if s.name == "solve_batch"]
        assert len(groups) == 12
        parents = {(s.pid, s.parent_id) for s in groups}
        assert len(parents) == 12
        assert {by_key[key].name for key in parents} == {"unit"}


def _deterministic(counters):
    """Drop the ``worker.*`` attribution namespace, the one documented
    exemption from cross-tier counter parity (pid-keyed, wall-clock valued —
    DESIGN.md §15)."""
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("worker.")
    }


class TestExactCounters:
    """Merged worker counters equal the serial run's, to the last increment."""

    def test_fault_free_process_counters_match_serial(self, unit_wall):
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)

        def run(jobs, strategies=PAPER_ORDER):
            engine = CampaignEngine(
                jobs=jobs, memo=False, obs=ObsConfig(metrics=True)
            )
            engine.solve_instances(chains, resources, strategies)
            return engine.obs.metrics.counters()

        serial = run(1)
        assert serial["solve.count"] == len(chains) * len(PAPER_ORDER)
        assert serial["binary_search.calls"] > 0
        assert serial["herad.calls"] == len(chains)
        # Stage probes are a campaign fact for every greedy strategy, 2CATAC
        # included (campaigns walk it; no vectorized path skips the count).
        greedy = [name for name in PAPER_ORDER if name != "herad"]
        alone = [run(1, (name,))["packing.compute_stage_calls"] for name in greedy]
        assert all(alone)
        assert serial["packing.compute_stage_calls"] == sum(alone)
        assert not any(name.startswith("worker.") for name in serial)
        process = run(4)
        assert _deterministic(process) == serial
        # The process tier additionally attributed its IPC costs per worker.
        worker_units = {
            name: value
            for name, value in process.items()
            if name.startswith("worker.") and name.endswith(".units")
        }
        assert worker_units
        # One unit per cell (``unit_wall(ONE_CELL_UNITS)``).
        assert sum(worker_units.values()) == len(chains) * len(PAPER_ORDER)

    def test_faulted_process_counters_match_serial(
        self, tmp_path, unit_wall, monkeypatch
    ):
        """Injected faults: retries/quarantines count identically on every tier."""
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)
        bug_chain = ChainProfile(chains[2]).fingerprint

        def run(jobs, state_dir):
            plan = FaultPlan(
                specs=(
                    # One chain's fertac has a deterministic bug -> quarantined.
                    # times is high enough that the bug persists through the
                    # unit rounds and the cell rung.
                    FaultSpec(
                        kind="bug",
                        fingerprint=bug_chain,
                        strategy="fertac",
                        times=10,
                    ),
                    # Every other chain's fertac fails transiently once -> retried.
                    FaultSpec(kind="raise", strategy="fertac", times=1),
                ),
                state_dir=str(state_dir),
            )
            inject_faults(monkeypatch, plan)
            engine = CampaignEngine(
                jobs=jobs,
                memo=False,
                resilience=ResilienceConfig(attempts=3),
                obs=ObsConfig(metrics=True),
            )
            arrays = engine.solve_instances(chains, resources, ("fertac", "herad"))
            return arrays, _resilience_counters(engine), engine

        serial_arrays, serial_counters, serial = run(1, tmp_path / "serial")
        process_arrays, process_counters, engine = run(4, tmp_path / "process")

        # Retry and quarantine counts are tier-independent facts about the
        # campaign; degradation counts are not (staying in-process for the
        # cell rung is no tier switch), so they are exempt from the parity
        # claim.
        for name in ("resilience.retries", "resilience.quarantined"):
            assert serial_counters.get(name) == process_counters.get(name), name
        assert serial_counters["resilience.retries"] == 5.0
        assert serial_counters["resilience.quarantined"] == 1.0
        assert "resilience.degradations" not in serial_counters
        assert process_counters.get("resilience.degradations", 0.0) >= 1.0
        # Quarantined cells are NaN sentinels on both tiers, solved cells equal.
        for name in ("fertac", "herad"):
            np.testing.assert_array_equal(
                serial_arrays[name].periods, process_arrays[name].periods
            )
            np.testing.assert_array_equal(
                serial_arrays[name].big_used, process_arrays[name].big_used
            )
        assert np.isnan(serial_arrays["fertac"].periods[2])
        assert len(engine.failures) == 1
        # Only solved cells count: a failed attempt's payload never comes
        # home, from a worker or from the cell rung's one-cell units.
        solves = [
            run_engine.obs.metrics.counters()["solve.count"]
            for run_engine in (serial, engine)
        ]
        assert solves == [len(chains) * 2 - 1] * 2

    def test_batch_kernel_memo_counters_match_serial(self, unit_wall):
        """Bulk memo fills (get_many/put_many) count one miss then one hit
        per cell, and the ``memo.*`` metrics agree with the cache's own
        stats — serial and on the process tier alike."""
        unit_wall(ONE_CELL_UNITS)
        chains = _chains(6)
        resources = Resources(3, 3)
        cells = len(chains) * len(PAPER_ORDER)

        def run(jobs):
            engine = CampaignEngine(
                jobs=jobs, memo=True, obs=ObsConfig(metrics=True)
            )
            engine.solve_instances(chains, resources, PAPER_ORDER)
            engine.solve_instances(chains, resources, PAPER_ORDER)
            counters = engine.obs.metrics.counters()
            memo_counters = {
                name: counters.get(name, 0.0)
                for name in ("memo.hits", "memo.misses")
            }
            assert engine.memo.stats.hits == memo_counters["memo.hits"]
            assert engine.memo.stats.misses == memo_counters["memo.misses"]
            return memo_counters

        want = {"memo.hits": float(cells), "memo.misses": float(cells)}
        assert run(1) == want
        assert run(4) == want

    def test_memo_hit_counters_are_exact(self):
        chains = _chains(4)
        resources = Resources(2, 2)
        engine = CampaignEngine(jobs=1, memo=True, obs=ObsConfig(metrics=True))
        engine.solve_instances(chains, resources, PAPER_ORDER)
        first = engine.obs.metrics.counter("memo.misses")
        assert first == len(chains) * len(PAPER_ORDER)
        assert engine.obs.metrics.counter("memo.hits") == 0.0
        engine.solve_instances(chains, resources, PAPER_ORDER)
        assert engine.obs.metrics.counter("memo.hits") == len(chains) * len(PAPER_ORDER)


class TestSketchParity:
    """Deterministic observation streams sketch bitwise-identically per tier.

    The ``solve.period.*`` observations are a pure function of the campaign
    (results are bitwise identical across tiers), and sketches carry only
    integer bucket counts plus exact min/max — no order-dependent float
    summation — so the merged ``--jobs 4`` sketch snapshot must pickle to
    the *same bytes* as the serial one.
    """

    @pytest.fixture(autouse=True)
    def _one_cell_units(self, unit_wall):
        unit_wall(ONE_CELL_UNITS)

    @staticmethod
    def _sketches(jobs):
        chains = _chains(6)
        engine = CampaignEngine(
            jobs=jobs, memo=False, obs=ObsConfig(metrics=True)
        )
        engine.solve_instances(chains, Resources(3, 3), PAPER_ORDER)
        snapshot = engine.obs.metrics.snapshot()
        return tuple(
            (name, sketch)
            for name, sketch in snapshot.sketches
            if name.startswith("solve.period.")
        )

    def test_process_tier_sketches_are_bitwise_identical_to_serial(self):
        serial = self._sketches(1)
        assert serial  # every strategy sketched its period stream
        assert {name for name, _ in serial} == {
            f"solve.period.{name}" for name in PAPER_ORDER
        }
        assert pickle.dumps(self._sketches(4)) == pickle.dumps(serial)

    def test_batch_kernel_sketches_match_the_scalar_path(self):
        """The engine's period stream is the scalar solvers' period stream."""
        registry = MetricsRegistry()
        solved = scalar_outcomes(_chains(6), Resources(3, 3), PAPER_ORDER)
        for name, outcomes in solved.items():
            for outcome in outcomes:
                registry.observe(f"solve.period.{name}", outcome.period)
        scalar = registry.snapshot().sketches
        assert pickle.dumps(self._sketches(4)) == pickle.dumps(scalar)

    def test_quantiles_come_from_the_merged_sketch(self):
        (first, *_rest) = self._sketches(4)
        _name, sketch = first
        assert sketch.count == 6  # one observation per chain
        assert sketch.minimum <= sketch.p50 <= sketch.p99 <= sketch.maximum


class TestWorkerAttribution:
    """The process tier attributes IPC costs per worker pid."""

    @pytest.fixture(autouse=True)
    def _one_cell_units(self, unit_wall):
        unit_wall(ONE_CELL_UNITS)

    @staticmethod
    def _run(jobs):
        chains = _chains(6)
        engine = CampaignEngine(
            jobs=jobs, memo=False, obs=ObsConfig(metrics=True)
        )
        engine.solve_instances(chains, Resources(3, 3), ("herad", "fertac"))
        return engine.obs.metrics.counters(), engine.obs.metrics.snapshot()

    def test_process_tier_reports_pickle_and_pool_wait(self):
        counters, snapshot = self._run(4)
        pids = {
            name.split(".")[1]
            for name in counters
            if name.startswith("worker.")
        }
        assert pids
        for pid in pids:
            assert counters[f"worker.{pid}.pickle.bytes_in"] > 0
            assert counters[f"worker.{pid}.pickle.bytes_out"] > 0
            assert counters[f"worker.{pid}.pickle.seconds_in"] >= 0.0
            assert counters[f"worker.{pid}.pool_wait.seconds"] >= 0.0
        wait = snapshot.sketch("worker.pool_wait.seconds")
        assert wait is not None
        assert wait.count == 12  # one wait observation per one-cell unit

    def test_serial_tier_records_no_attribution(self):
        counters, _ = self._run(1)
        assert not any(name.startswith("worker.") for name in counters)


class TestNoOpPath:
    def test_disabled_engine_ships_no_payloads(self):
        chains = _chains(4)
        engine = CampaignEngine(jobs=1, memo=False)
        assert engine.obs.enabled is False
        assert engine.obs.worker_config() is None
        engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        assert engine.obs.spans() == ()
        assert engine.obs.metrics.snapshot().empty

    def test_disabled_counter_add_makes_no_further_call(self):
        """Off, a hook is one call into ``counter_add`` and one into the
        null registry's ``add``, which calls nothing: no Python or C call
        below it, whatever the counter."""
        events = []

        def record(frame, event, arg):
            if frame.f_code is not recorded.__code__:
                events.append((event, frame.f_code))

        def recorded():
            sys.setprofile(record)
            try:
                counter_add("noop")
                counter_add("packing.compute_stage_calls", 3)
            finally:
                sys.setprofile(None)

        recorded()
        hook, null_add = counter_add.__code__, NullMetrics.add.__code__
        one_call = [
            ("call", hook), ("call", null_add), ("return", null_add), ("return", hook)
        ]
        assert events == one_call * 2

    def test_campaign_hook_calls_are_pinned(self):
        """What the off path costs a campaign is its hook-call count times
        the two calls above.  The count's model (a bisection flushes once
        per probe — its iterations plus at most two fallback probes — and
        twice at its end; a HeRAD solve twice) and the calls the disabled
        campaign actually makes are pinned, so a new hook moves them on
        purpose."""
        chains, resources = _chains(6), Resources(3, 3)
        counted = CampaignEngine(jobs=1, memo=False, obs=ObsConfig(metrics=True))
        counted.solve_instances(chains, resources, PAPER_ORDER)
        counters = counted.obs.metrics.counters()
        modelled = (
            counters["binary_search.iterations"]
            + 4 * counters["binary_search.calls"]
            + 2 * counters["herad.calls"]
        )
        assert modelled == 314
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is counter_add.__code__:
                calls += 1

        disabled = CampaignEngine(jobs=1, memo=False)
        sys.setprofile(count)
        try:
            disabled.solve_instances(chains, resources, PAPER_ORDER)
        finally:
            sys.setprofile(None)
        assert calls == 266  # no fallback probe fired: 2 per bisection, not 4

    def test_observability_accepts_config_and_instance(self):
        obs = Observability(ObsConfig(trace=True))
        assert CampaignEngine(obs=obs).obs is obs
        assert CampaignEngine(obs=ObsConfig(metrics=True)).obs.enabled
        assert CampaignEngine(obs=True).obs.config == ObsConfig(
            trace=True, metrics=True
        )
