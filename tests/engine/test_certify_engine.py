"""--certify wiring through the campaign engine and experiment drivers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import CertificationError, Resources, TaskChain, herad
from repro.core.binary_search import ScheduleOutcome
from repro.core.chain_stats import ChainProfile
from repro.core.registry import STRATEGIES, get_info
from repro.engine import CampaignEngine
from repro.engine.batch import solve_instance
from repro.engine.memo import InstanceResult, make_key
from repro.experiments.common import run_campaign


@pytest.fixture
def chains() -> list:
    return [
        TaskChain.from_weights(
            weights_big=[3 + i, 5, 2, 7],
            weights_little=[6 + 2 * i, 10, 4, 14],
            replicable=[True, True, False, True],
        )
        for i in range(4)
    ]


@pytest.fixture
def resources() -> Resources:
    return Resources(big=2, little=2)


def _tampered_herad(chain, resources) -> ScheduleOutcome:
    outcome = herad(chain, resources)
    return dataclasses.replace(outcome, period=outcome.period * 0.25)


class TestSolveInstance:
    def test_certified_results_match_uncertified(self, chains, resources):
        profile = ChainProfile(chains[0])
        plain = solve_instance(profile, resources, ["herad", "fertac"])
        audited = solve_instance(
            profile, resources, ["herad", "fertac"], certify=True
        )
        assert plain == audited

    def test_lying_strategy_is_caught(self, chains, resources, monkeypatch):
        broken = dataclasses.replace(STRATEGIES["herad"], func=_tampered_herad)
        monkeypatch.setitem(STRATEGIES, "herad", broken)
        profile = ChainProfile(chains[0])
        assert solve_instance(profile, resources, ["herad"])  # unaudited: passes
        with pytest.raises(CertificationError, match="herad"):
            solve_instance(profile, resources, ["herad"], certify=True)


class TestEngineBypass:
    def test_certify_ignores_poisoned_memo(self, chains, resources):
        engine = CampaignEngine(jobs=1, memo=True)
        poisoned = InstanceResult(period=1e-9, big_used=0, little_used=0)
        for chain in chains:
            engine.memo.put(make_key(chain, resources, "herad"), poisoned)

        replayed = engine.solve_instances(chains, resources, ["herad"])
        assert np.allclose(replayed["herad"].periods, 1e-9)

        audited = engine.solve_instances(
            chains, resources, ["herad"], certify=True
        )
        fresh = CampaignEngine(jobs=1, memo=False).solve_instances(
            chains, resources, ["herad"]
        )
        assert np.array_equal(audited["herad"].periods, fresh["herad"].periods)

    def test_certified_solves_refresh_the_cache(self, chains, resources):
        engine = CampaignEngine(jobs=1, memo=True)
        poisoned = InstanceResult(period=1e-9, big_used=0, little_used=0)
        key = make_key(chains[0], resources, "herad")
        engine.memo.put(key, poisoned)
        engine.solve_instances(chains, resources, ["herad"], certify=True)
        assert engine.memo.get(key).period != 1e-9


class TestRunCampaign:
    def test_certified_campaign_matches_plain(self, resources):
        plain = run_campaign(
            resources,
            0.5,
            num_chains=6,
            strategies=["herad", "fertac"],
            seed=3,
            jobs=1,
            engine=CampaignEngine(jobs=1, memo=False),
        )
        audited = run_campaign(
            resources,
            0.5,
            num_chains=6,
            strategies=["herad", "fertac"],
            seed=3,
            jobs=1,
            engine=CampaignEngine(jobs=1, memo=False),
            certify=True,
        )
        for name in ("herad", "fertac"):
            assert np.array_equal(
                plain.records[name].periods, audited.records[name].periods
            )

    def test_certified_campaign_through_process_backend(self, resources):
        audited = run_campaign(
            resources,
            0.5,
            num_chains=4,
            strategies=["herad", "2catac"],
            seed=1,
            jobs=2,
            engine=CampaignEngine(jobs=2, memo=False),
            certify=True,
        )
        assert np.all(np.isfinite(audited.records["herad"].periods))
