"""Smoke and shape tests for every experiment driver (small scales)."""

from __future__ import annotations

import pytest

from repro.core.types import Resources
from repro.experiments import fig1, fig2, fig3, fig4, fig5, fig6, table1, table2, table3
from repro.platform.presets import MAC_STUDIO, X7_TI


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(
            num_chains=12,
            budgets=[Resources(4, 4)],
            stateless_ratios=[0.5],
        )

    def test_structure(self, result):
        assert len(result.scenarios) == 1
        stats = result.scenarios[0].stats
        assert set(stats) >= {"herad", "2catac", "fertac", "otac_b", "otac_l"}
        assert stats["herad"].percent_optimal == 100.0

    def test_render(self, result):
        text = table1.render(result)
        assert "HeRAD" in text and "OTAC (L)" in text
        assert "paper period stats" in text
        assert "paper period stats" not in table1.render(
            result, include_paper=False
        )


class TestFig1:
    def test_run_and_render(self):
        result = fig1.run(
            num_chains=10,
            budgets=[Resources(10, 10)],
            stateless_ratios=[0.5],
        )
        assert len(result.scenarios) == 1
        cdfs = result.scenarios[0].cdfs
        assert cdfs["herad"].fraction_optimal == pytest.approx(1.0)
        # Paper shape: little cores alone never reach the optimum here.
        assert cdfs["otac_l"].fraction_optimal == 0.0
        text = fig1.render(result)
        assert "Fig. 1a" in text and "Fig. 1b" in text


class TestFig2:
    def test_run_and_render(self):
        result = fig2.run(num_chains=15, resources=Resources(4, 4))
        assert result.all_results.num_chains == 15
        # Fig. 2b population-denominator: shares never exceed 2a shares.
        assert result.optimal_only.share_within_extra_cores(
            10
        ) <= result.all_results.share_within_extra_cores(10) + 1e-9
        text = fig2.render(result)
        assert "paper: 59.0%" in text
        # Paper shape at its own budget R = (10B, 10L): most chains stay
        # within two extra cores of HeRAD (paper: 59.0% / 83.1%).
        paper = fig2.run(num_chains=20).all_results
        assert paper.share_within_extra_cores(2) > 50.0
        assert paper.share_within_extra_cores(2) >= paper.share_within_extra_cores(1)


class TestFig3And4:
    def test_fig3_small(self):
        result = fig3.run(
            task_counts=[6, 8],
            budgets=[Resources(3, 3)],
            stateless_ratios=[0.5],
            strategies=["fertac", "herad"],
            num_chains=2,
        )
        assert len(result.points) == 4
        assert "Fig. 3" in fig3.render(result)

    def test_fig3_caps_exponential_strategies(self):
        result = fig3.run(
            task_counts=[6, 100],
            budgets=[Resources(2, 2)],
            stateless_ratios=[0.5],
            strategies=["2catac"],
            num_chains=1,
            caps={"2catac": 10},
        )
        assert [p.num_tasks for p in result.points] == [6]

    def test_fig4_small(self):
        result = fig4.run(
            budgets=[Resources(2, 2), Resources(4, 4)],
            num_tasks=6,
            stateless_ratios=[0.5],
            strategies=["fertac"],
            num_chains=2,
        )
        assert len(result.points) == 2
        assert "Fig. 4" in fig4.render(result)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(
            configurations=[(MAC_STUDIO, Resources(8, 2))],
            strategies=["herad", "otac_l"],
            num_frames=400,
        )

    def test_rows(self, result):
        assert len(result.rows) == 2
        herad_row = result.rows[0]
        assert herad_row.period_us == pytest.approx(1128.75, abs=0.1)
        assert herad_row.sim_mbps == pytest.approx(50.4, abs=0.2)
        # The calibrated runtime is slower than the model, never faster.
        assert herad_row.real_mbps < herad_row.sim_mbps

    def test_render(self, result):
        text = table2.render(result)
        assert "Mac Studio" in text
        assert "(8B, 2L)" in text
        assert "paper period" in text


class TestTable3:
    def test_totals_match(self):
        result = table3.run()
        assert result.totals_match
        text = table3.render(result)
        assert "match" in text
        assert "tau_19" in text


class TestFig5And6:
    def test_fig5_render(self):
        result = fig5.run(
            configurations=[(MAC_STUDIO, Resources(8, 2))],
            strategies=["herad", "otac_l"],
            num_frames=300,
        )
        text = fig5.render(result)
        assert "Fig. 5" in text
        assert "#" in text

    def test_fig5_paper_shapes(self):
        rows = fig5.run(num_frames=300).table2.rows
        assert len(rows) == 20  # four configurations x five strategies

        def achieved(platform, resources):
            return {
                row.strategy: row.real_mbps
                for row in rows
                if row.platform == platform.name and row.resources == resources
            }

        # On the full X7 Ti budget the heterogeneous optimum beats OTAC (B)
        # by roughly 2x (paper: 84.8 vs 39.7 Mb/s expected).
        x7_full = achieved(X7_TI, Resources(6, 8))
        assert x7_full["herad"] > 1.5 * x7_full["otac_b"]
        # OTAC (L) is always the slowest on the Mac Studio.
        mac_half = achieved(MAC_STUDIO, Resources(8, 2))
        assert min(mac_half, key=mac_half.get) == "otac_l"
        # The calibrated runtime is slower than the model on every row.
        for row in rows:
            assert row.real_mbps <= row.sim_mbps + 1e-9

    def test_fig6_summary(self):
        t2 = table2.run(
            configurations=[(MAC_STUDIO, Resources(8, 2))],
            strategies=["herad", "fertac"],
            num_frames=300,
        )
        result = fig6.run(
            num_chains=6,
            budgets=[Resources(3, 3)],
            stateless_ratios=[0.5],
            table2=t2,
            strategies=["herad", "fertac"],
        )
        assert len(result.rows) == 2
        herad_row = next(r for r in result.rows if r.strategy == "herad")
        assert herad_row.avg_slowdown == pytest.approx(1.0)
        # Fig. 3/4's order, with a 40x margin here: the greedy is the cheap one.
        fertac_row = next(r for r in result.rows if r.strategy == "fertac")
        assert fertac_row.mean_time_us < herad_row.mean_time_us
        assert "Fig. 6" in fig6.render(result)
