"""Tests for repro.experiments.common (campaigns and timing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Resources
from repro.engine import CampaignEngine, MemoCache
from repro.experiments import table1
from repro.experiments.common import campaign_chains, run_campaign, time_strategy


class TestRunCampaign:
    def test_records_all_paper_strategies(self):
        campaign = run_campaign(Resources(3, 3), 0.5, num_chains=5, num_tasks=8)
        assert set(campaign.records) == {
            "herad",
            "2catac",
            "fertac",
            "otac_b",
            "otac_l",
        }
        for rec in campaign.records.values():
            assert rec.periods.shape == (5,)
            assert rec.big_used.shape == (5,)

    def test_herad_always_included(self):
        campaign = run_campaign(
            Resources(2, 2), 0.5, num_chains=3, num_tasks=6,
            strategies=["fertac"],
        )
        assert "herad" in campaign.records
        assert "fertac" in campaign.records

    def test_herad_is_lower_envelope(self):
        campaign = run_campaign(Resources(3, 3), 0.5, num_chains=8, num_tasks=8)
        opt = campaign.optimal_periods
        for name, rec in campaign.records.items():
            assert (rec.periods >= opt - 1e-9).all(), name

    def test_deterministic_by_seed(self):
        a = run_campaign(Resources(2, 2), 0.5, num_chains=4, num_tasks=6, seed=5)
        b = run_campaign(Resources(2, 2), 0.5, num_chains=4, num_tasks=6, seed=5)
        np.testing.assert_array_equal(
            a.records["fertac"].periods, b.records["fertac"].periods
        )

    def test_usage_within_budget(self):
        resources = Resources(3, 2)
        campaign = run_campaign(resources, 0.5, num_chains=6, num_tasks=8)
        for rec in campaign.records.values():
            assert (rec.big_used <= resources.big).all()
            assert (rec.little_used <= resources.little).all()

    def test_a_handed_in_population_is_the_drawn_one(self):
        """``chains=`` changes who draws, not what is solved: same arrays,
        same memo keys, same hit / miss counts."""
        def campaign(**extra):
            engine = CampaignEngine(jobs=1, memo=MemoCache())
            result = run_campaign(
                Resources(2, 2), 0.5, num_chains=4, num_tasks=6, seed=5,
                engine=engine, **extra,
            )
            return result, engine.memo.stats

        drawn, drawn_stats = campaign()
        handed, handed_stats = campaign(chains=campaign_chains(0.5, 4, 6, seed=5))
        assert handed_stats == drawn_stats
        for name, rec in drawn.records.items():
            np.testing.assert_array_equal(rec.periods, handed.records[name].periods)
            np.testing.assert_array_equal(rec.big_used, handed.records[name].big_used)

    def test_a_handed_in_population_labels_the_result_with_its_own_size(self):
        result = run_campaign(
            Resources(2, 2), 0.5, chains=campaign_chains(0.5, 3, 6, seed=5)
        )
        assert result.num_chains == 3 == len(result.optimal_periods)

    def test_table1_draws_each_population_once(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            table1, "campaign_chains",
            lambda sr, n, seed: drawn.append(sr) or campaign_chains(sr, n, seed=seed),
        )
        engine = CampaignEngine(jobs=1, memo=MemoCache())
        result = table1.run(num_chains=2, seed=3, engine=engine)
        assert drawn == [0.2, 0.5, 0.8] and len(result.scenarios) == 9
        # 9 scenarios x 2 chains x 5 strategies, every one a distinct key.
        assert engine.memo.stats.misses == 90 and engine.memo.stats.hits == 0


class TestTimeStrategy:
    def test_returns_positive_times(self):
        point = time_strategy(
            "fertac", Resources(4, 4), 0.5, num_tasks=10, num_chains=3
        )
        assert point.mean_seconds > 0
        assert point.mean_microseconds == pytest.approx(
            point.mean_seconds * 1e6
        )
        assert point.strategy == "fertac"
        assert point.num_tasks == 10

    def test_resolves_aliases(self):
        point = time_strategy(
            "OTAC (B)", Resources(4, 0), 0.5, num_tasks=8, num_chains=2
        )
        assert point.strategy == "otac_b"
