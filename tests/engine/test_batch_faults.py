"""Regression tests: fault injection must fire inside batched units.

A unit is solved a strategy group at a time; routing a whole unit to the
vectorized path used to bypass an armed fault plan silently.  ``solve_unit``
splits a faulted unit per instance: every instance the plan could target
goes through the scalar per-cell path (the only place ``FaultPlan.fire`` is
consulted), the rest stay batched, and the merged rows stay bitwise
identical to the scalar solvers.  Every cell is audited, so a ``corrupt``
fault surfaces as the :class:`CertificationError` of the cell it hit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.errors import CertificationError
from repro.core.types import Resources
from repro.engine import FaultPlan, FaultSpec, InjectedFault, solve_unit
from repro.engine.batch import PendingInstance, SolvedCell, WorkUnit
from repro.engine.memo import InstanceResult
from repro.obs.context import ObsConfig
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .oracle import scalar_outcomes


def _chains(count=4, seed=0):
    config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
    return list(chain_batch(count, config, seed=seed))


def _unit(chains, strategies=("fertac",), **kwargs):
    """A journaled unit, so its rows carry the schedules compared too."""
    return WorkUnit(
        pending=tuple(
            PendingInstance(index=i, chain=c, strategies=strategies)
            for i, c in enumerate(chains)
        ),
        resources=Resources(2, 2),
        journal=True,
        **kwargs,
    )


def _rows_by_index(outcome, indices=None):
    """A unit's rows keyed by chain index (re-keyed by ``indices`` when the
    unit held a subset of the chains)."""
    rows = dict(outcome.rows)
    if indices is not None:
        rows = {indices[position]: row for position, row in rows.items()}
    return rows


def _scalar_rows(chains, strategies=("fertac",)):
    """The rows a unit must produce, from the scalar solvers alone."""
    resources = Resources(2, 2)
    solved = scalar_outcomes(chains, resources, strategies)
    rows = {}
    for index in range(len(chains)):
        rows[index] = {}
        for name in strategies:
            outcome = solved[name][index]
            usage = outcome.solution.core_usage(resources.ktype)
            result = InstanceResult(
                period=outcome.period,
                big_used=usage.counts[0],
                little_used=usage.counts[1],
                extra_used=usage.counts[2:],
            )
            stages = tuple(
                (s.start, s.end, s.cores, int(s.core_type))
                for s in outcome.solution
            )
            rows[index][name] = SolvedCell(result, stages)
    return rows


class TestTargeting:
    def test_targets_matches_scoped_specs(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", fingerprint="abc", strategy="fertac"),),
            state_dir=str(tmp_path),
        )
        assert plan.targets("abc", ("fertac",))
        assert plan.targets("abc", ("herad", "fertac"))
        assert not plan.targets("xyz", ("fertac",))
        assert not plan.targets("abc", ("herad",))

    def test_timed_specs_never_target_cells(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="core_failure", at=1.0, cores=2),),
            state_dir=str(tmp_path),
        )
        assert not plan.targets("abc", ("fertac",))


class TestBatchKernelInjection:
    def test_corrupt_fires_under_batch_kernel(self, tmp_path):
        """The regression: a targeted instance in a batched unit is hit,
        and the audit names the chain it hit."""
        chains = _chains(4)
        target = ChainProfile(chains[2]).fingerprint
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5, fingerprint=target),),
            state_dir=str(tmp_path),
        )
        with pytest.raises(CertificationError, match=f"fertac on chain {target}"):
            solve_unit(_unit(chains, faults=plan))

    def test_untargeted_instances_stay_bitwise_identical(self, tmp_path):
        """The same plan leaves every other chain's row untouched: in a unit
        of their own, and beside the targeted chain when its fault tampers
        with nothing (factor 1 still routes it through the per-cell path)."""
        chains = _chains(4)
        target = ChainProfile(chains[2]).fingerprint
        clean = _scalar_rows(chains)
        spec = FaultSpec(kind="corrupt", factor=0.5, fingerprint=target)
        plan = FaultPlan(specs=(spec,), state_dir=str(tmp_path / "own"))
        untargeted = [0, 1, 3]
        alone = _rows_by_index(
            solve_unit(_unit([chains[i] for i in untargeted], faults=plan)),
            untargeted,
        )
        assert alone == {index: clean[index] for index in untargeted}
        harmless = FaultPlan(
            specs=(dataclasses.replace(spec, factor=1.0),),
            state_dir=str(tmp_path / "mixed"),
        )
        assert _rows_by_index(solve_unit(_unit(chains, faults=harmless))) == clean

    def test_raise_fires_under_batch_kernel(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise"),), state_dir=str(tmp_path)
        )
        with pytest.raises(InjectedFault):
            solve_unit(_unit(_chains(2), faults=plan))

    def test_certify_catches_batch_corruption(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5),),
            state_dir=str(tmp_path),
        )
        with pytest.raises(CertificationError):
            solve_unit(_unit(_chains(2), faults=plan))

    def test_wildcard_plan_matches_python_kernel_results(self, tmp_path):
        """With every instance targeted (by a fault that tampers with
        nothing), the unit is the scalar solvers' outcomes."""
        chains = _chains(5, seed=3)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=1.0),),
            state_dir=str(tmp_path),
        )
        strategies = ("fertac", "herad")
        routed = _rows_by_index(
            solve_unit(_unit(chains, strategies, faults=plan))
        )
        assert routed == _scalar_rows(chains, strategies)

    def test_mixed_unit_records_both_solve_paths(self, tmp_path):
        """A faulted unit runs scalar cells for targeted instances and one
        batched group for the rest — visible in the spans, and both feed
        the one ``solve.seconds.<strategy>`` histogram."""
        chains = _chains(4)
        target = ChainProfile(chains[1]).fingerprint
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=1.0, fingerprint=target),),
            state_dir=str(tmp_path),
        )
        outcome = solve_unit(
            _unit(chains, faults=plan, obs=ObsConfig(trace=True, metrics=True))
        )
        assert outcome.obs is not None
        solves = [span for span in outcome.obs.spans if span.category == "solve"]
        assert sorted(span.name for span in solves) == ["solve", "solve_batch"]
        histograms = dict(outcome.obs.metrics.histograms)
        assert histograms["solve.seconds.fertac"].count == 2
        assert dict(outcome.obs.metrics.counters)["solve.count"] == 4.0
