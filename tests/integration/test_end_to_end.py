"""End-to-end flows: schedule -> pipeline -> execution -> throughput."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.registry import PAPER_ORDER, run_strategies
from repro.core.types import Resources
from repro.platform.presets import MAC_STUDIO
from repro.sdr.dvbs2 import dvbs2_chain
from repro.sdr.framing import DVBS2_NORMAL_R8_9
from repro.streampu.overheads import CalibratedOverhead, NoOverhead
from repro.streampu.pipeline import PipelineSpec
from repro.streampu.simulator import simulate_pipeline
from repro.workloads.synthetic import GeneratorConfig, random_chain


class TestScheduleToSimulation:
    def test_all_strategies_execute_on_dvbs2(self):
        chain = dvbs2_chain(MAC_STUDIO)
        resources = Resources(8, 2)
        outcomes = run_strategies(chain, resources)
        for name, outcome in outcomes.items():
            spec = PipelineSpec.from_solution(outcome.solution, chain)
            result = simulate_pipeline(spec, num_frames=600)
            assert result.report.measured_period == pytest.approx(
                outcome.period, rel=0.05
            ), name

    def test_optimal_schedule_beats_heuristics_in_simulation(self):
        chain = dvbs2_chain(MAC_STUDIO)
        resources = Resources(8, 2)
        outcomes = run_strategies(chain, resources)
        throughput = {}
        for name, outcome in outcomes.items():
            spec = PipelineSpec.from_solution(outcome.solution, chain)
            sim = simulate_pipeline(spec, num_frames=600)
            throughput[name] = sim.report.fps(interframe=4)
        assert throughput["herad"] >= max(
            v for k, v in throughput.items() if k != "herad"
        ) * 0.99

    def test_calibrated_overhead_slows_all_strategies(self):
        chain = dvbs2_chain(MAC_STUDIO)
        outcomes = run_strategies(chain, Resources(8, 2), names=["herad"])
        spec = PipelineSpec.from_solution(outcomes["herad"].solution, chain)
        ideal = simulate_pipeline(spec, num_frames=600, overhead=NoOverhead())
        real = simulate_pipeline(
            spec, num_frames=600, overhead=CalibratedOverhead()
        )
        gap = real.report.measured_period / ideal.report.measured_period
        # Gap magnitude in the paper's observed 1-20% band.
        assert 1.0 < gap < 1.25

    def test_mbps_pipeline_end_to_end(self):
        chain = dvbs2_chain(MAC_STUDIO)
        outcomes = run_strategies(chain, Resources(16, 4), names=["herad"])
        spec = PipelineSpec.from_solution(outcomes["herad"].solution, chain)
        sim = simulate_pipeline(spec, num_frames=800)
        mbps = sim.report.mbps(DVBS2_NORMAL_R8_9.info_bits, interframe=4)
        # Paper: 59.9 Mb/s expected.
        assert mbps == pytest.approx(59.9, rel=0.03)


class TestStrategyConsistency:
    def test_registry_order_is_table_order(self):
        assert PAPER_ORDER[0] == "herad"

    @pytest.mark.parametrize("sr", [0.2, 0.8])
    def test_campaign_smoke_ordering(self, sr):
        """On any instance, OTAC(L) can never beat HeRAD, and the average
        ranking follows the paper: HeRAD <= 2CATAC <= ... (on average)."""
        rng = np.random.default_rng(int(sr * 100))
        config = GeneratorConfig(num_tasks=10, stateless_ratio=sr)
        resources = Resources(5, 5)
        sums = {name: 0.0 for name in PAPER_ORDER}
        for _ in range(10):
            profile = ChainProfile(random_chain(rng, config))
            outcomes = run_strategies(profile, resources)
            for name, outcome in outcomes.items():
                sums[name] += outcome.period
        assert sums["herad"] <= sums["2catac"] + 1e-9
        assert sums["herad"] <= sums["fertac"] + 1e-9
        assert sums["herad"] <= sums["otac_b"] + 1e-9
        assert sums["herad"] <= sums["otac_l"] + 1e-9
