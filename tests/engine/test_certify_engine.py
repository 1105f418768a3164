"""Certification on every campaign path: the engine, its workers, the drivers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.binary_search import ScheduleOutcome
from repro.core.chain_stats import ChainProfile
from repro.core.errors import CertificationError
from repro.core.herad import herad
from repro.core.registry import STRATEGIES
from repro.core.task import TaskChain
from repro.core.types import Resources
from repro.engine import CampaignEngine, ResilienceConfig
from repro.engine import batch
from repro.engine.memo import InstanceResult, make_key
from repro.experiments.common import campaign_chains, run_campaign

from .oracle import scalar_arrays, solve_cells

#: HeRAD's prefix sums absorb task 2 of this chain and claim 5e-324 for a
#: schedule whose certified period is 1.0 (the arithmetic is not mended
#: yet: ``tests/core/test_greedy_probe.py::TestInfiniteCoreNeed``).
_ABSORBING_CHAIN = TaskChain.from_weights(
    [5e-324, 5e-324, 1e-300], [2.0**53, 2.0**54, 1.0], [True, False, True]
)


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
    """One instance through ``solve_unit``, the engine's one solve route."""

    def test_certified_results_match_uncertified(self, chains, resources):
        """The audit changes no result: the rows are the scalar solvers'."""
        cells = solve_cells(chains[0], resources, ["herad", "fertac"])
        plain = scalar_arrays(chains[:1], resources, ["herad", "fertac"])
        for name, cell in cells.items():
            assert cell.result.period == plain[name].periods[0]
            assert cell.result.big_used == plain[name].big_used[0]
            assert cell.result.little_used == plain[name].little_used[0]

    def test_lying_strategy_is_caught(self, chains, resources, monkeypatch):
        broken = dataclasses.replace(
            STRATEGIES["herad"], func=_tampered_herad, batch_func=None
        )
        monkeypatch.setitem(STRATEGIES, "herad", broken)
        profile = ChainProfile(chains[0])
        with pytest.raises(CertificationError, match=f"herad on chain {profile.fingerprint}"):
            solve_cells(chains[0], resources, ["herad"])


class TestEngineBypass:
    def test_memo_hits_are_trusted_not_reaudited(self, chains, resources, monkeypatch):
        """The memo only ever holds audited outcomes, so a hit is replayed
        as it is: a warm campaign calls the auditor not once."""
        engine = CampaignEngine(jobs=1, memo=True)
        cold = engine.solve_instances(chains, resources, ["herad"])
        audits = []
        monkeypatch.setattr(
            batch, "certify_outcome", lambda *args, **kwargs: audits.append(args)
        )
        warm = engine.solve_instances(chains, resources, ["herad"])
        assert audits == []
        assert np.array_equal(warm["herad"].periods, cold["herad"].periods)

    def test_certified_solves_refresh_the_cache(self, chains, resources):
        engine = CampaignEngine(jobs=1, memo=True)
        arrays = engine.solve_instances(chains, resources, ["herad"])
        key = make_key(chains[0], resources, "herad")
        assert engine.memo.get(key) == InstanceResult(
            arrays["herad"].periods[0],
            arrays["herad"].big_used[0],
            arrays["herad"].little_used[0],
        )


class TestRunCampaign:
    def test_certified_campaign_matches_plain(self, resources):
        audited = run_campaign(
            resources,
            0.5,
            num_chains=6,
            strategies=["herad", "fertac"],
            seed=3,
            jobs=1,
            engine=CampaignEngine(jobs=1, memo=False),
        )
        chains = campaign_chains(0.5, 6, seed=3)
        plain = scalar_arrays(chains, resources, ["herad", "fertac"])
        for name in ("herad", "fertac"):
            assert np.array_equal(
                plain[name].periods, audited.records[name].periods
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
        )
        assert np.all(np.isfinite(audited.records["herad"].periods))


class TestAbsorbedTask:
    """A wrong claim is never silent on the product path."""

    def test_default_campaign_raises(self):
        engine = CampaignEngine(jobs=1, memo=False)
        with pytest.raises(CertificationError, match="(?s)claims period 5e-324"):
            engine.solve_instances([_ABSORBING_CHAIN], Resources(2, 2), ("herad",))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resilient_campaign_quarantines_with_evidence(self, jobs):
        with CampaignEngine(
            jobs=jobs, memo=False, resilience=ResilienceConfig(attempts=1)
        ) as engine:
            arrays = engine.solve_instances(
                [_ABSORBING_CHAIN], Resources(2, 2), ("herad", "fertac")
            )
        assert np.isnan(arrays["herad"].periods[0])
        assert np.isfinite(arrays["fertac"].periods[0])
        (record,) = engine.failures
        assert record.strategy == "herad"
        assert record.error_type == "CertificationError"
        assert "period-mismatch" in record.message and "5e-324" in record.message
