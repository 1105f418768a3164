"""Regression tests: an armed fault fires inside a batched unit.

A unit is solved a strategy group at a time through ``solve_batch``.
Arming a plan swaps each strategy it can hit for a plan-consulting wrapper
with no batch kernel, so every cell of that strategy meets the plan, and
the rows stay bitwise identical to the scalar solvers wherever the fault
tampers with nothing.  Every cell is audited, so a ``corrupt`` fault
surfaces as the :class:`CertificationError` of the cell it hit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.errors import CertificationError
from repro.core.types import Resources
from repro.engine import solve_unit
from repro.engine.batch import PendingInstance, SolvedCell, WorkUnit
from repro.engine.memo import InstanceResult
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from .faults import FaultPlan, FaultSpec, InjectedFault, inject_faults
from .oracle import scalar_outcomes


def _chains(count=4, seed=0):
    config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
    return list(chain_batch(count, config, seed=seed))


def _unit(chains, strategies=("fertac",)):
    """A journaled unit, so its rows carry the schedules compared too."""
    return WorkUnit(
        pending=tuple(
            PendingInstance(index=i, chain=c, strategies=strategies)
            for i, c in enumerate(chains)
        ),
        resources=Resources(2, 2),
        journal=True,
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


class TestBatchKernelInjection:
    def test_corrupt_fires_under_batch_kernel(self, tmp_path, monkeypatch):
        """The regression: a targeted instance in a batched unit is hit,
        and the audit names the chain it hit."""
        chains = _chains(4)
        target = ChainProfile(chains[2]).fingerprint
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5, fingerprint=target),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        with pytest.raises(CertificationError, match=f"fertac on chain {target}"):
            solve_unit(_unit(chains))

    def test_untargeted_instances_stay_bitwise_identical(
        self, tmp_path, monkeypatch
    ):
        """The same plan leaves every other chain's row untouched: in a unit
        of their own, and beside the targeted chain when its fault tampers
        with nothing."""
        chains = _chains(4)
        target = ChainProfile(chains[2]).fingerprint
        clean = _scalar_rows(chains)
        spec = FaultSpec(kind="corrupt", factor=0.5, fingerprint=target)
        inject_faults(
            monkeypatch, FaultPlan(specs=(spec,), state_dir=str(tmp_path / "own"))
        )
        untargeted = [0, 1, 3]
        alone = _rows_by_index(
            solve_unit(_unit([chains[i] for i in untargeted])), untargeted
        )
        assert alone == {index: clean[index] for index in untargeted}
        harmless = FaultPlan(
            specs=(dataclasses.replace(spec, factor=1.0),),
            state_dir=str(tmp_path / "mixed"),
        )
        inject_faults(monkeypatch, harmless)
        assert _rows_by_index(solve_unit(_unit(chains))) == clean
        assert harmless.firings(0, target, "fertac") == 1

    def test_raise_fires_under_batch_kernel(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise"),), state_dir=str(tmp_path)
        )
        inject_faults(monkeypatch, plan)
        with pytest.raises(InjectedFault):
            solve_unit(_unit(_chains(2)))

    def test_certify_catches_batch_corruption(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        with pytest.raises(CertificationError):
            solve_unit(_unit(_chains(2)))

    def test_wildcard_plan_matches_python_kernel_results(
        self, tmp_path, monkeypatch
    ):
        """With every instance targeted (by a fault that tampers with
        nothing), HeRAD's unit leaves its batch kernel for the scalar map
        and is still the scalar solvers' outcomes."""
        chains = _chains(5, seed=3)
        strategies = ("fertac", "herad")
        expected = _scalar_rows(chains, strategies)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=1.0),),
            state_dir=str(tmp_path),
        )
        inject_faults(monkeypatch, plan)
        routed = _rows_by_index(solve_unit(_unit(chains, strategies)))
        assert routed == expected
        assert plan.firings(0, ChainProfile(chains[0]).fingerprint, "herad") == 1
