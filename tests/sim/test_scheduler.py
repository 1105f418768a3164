"""Tests for the degradation-ladder scheduler (repro.sim.scheduler)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.certify import optimality_bracket
from repro.core.chain_stats import ChainProfile
from repro.core.solution import Solution
from repro.core.types import Resources
from repro.obs.metrics import MetricsRegistry
from repro.sim import RESCHED_ACTIONS, WARM_COST, IncrementalScheduler
from repro.workloads.synthetic import GeneratorConfig, random_ktype_chain

_CONFIG = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)


def _chain(seed=0, name="c"):
    rng = np.random.default_rng(seed)
    return random_ktype_chain(rng, _CONFIG, 2, name=name)


def _actions(decisions):
    return {d.name: d.action for d in decisions}


class TestRegistration:
    def test_admit_depart_mutate(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        sched.admit(_chain(1, "b"))
        assert sched.chains == ("a", "b")
        sched.depart("a")
        assert sched.chains == ("b",)
        sched.mutate(_chain(2, "b"))
        assert sched.chains == ("b",)

    def test_duplicate_admit_rejected(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        with pytest.raises(ValueError, match="already registered"):
            sched.admit(_chain(1, "a"))

    def test_unknown_depart_and_mutate_rejected(self):
        sched = IncrementalScheduler()
        with pytest.raises(ValueError, match="not registered"):
            sched.depart("ghost")
        with pytest.raises(ValueError, match="not registered"):
            sched.mutate(_chain(0, "ghost"))


class TestLadderRungs:
    """Each of the five rungs is reachable and reported."""

    def test_arrival_takes_full_solve(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        (decision,) = sched.reschedule(Resources.from_counts((2, 2)))
        assert decision.action == "full"
        assert decision.period is not None and decision.triplets

    def test_unchanged_world_keeps(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        budget = Resources.from_counts((2, 2))
        sched.reschedule(budget)
        (decision,) = sched.reschedule(budget)
        assert decision.action == "keep"
        assert decision.cost == 0.0

    def test_platform_change_warm_starts(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        sched.reschedule(Resources.from_counts((3, 3)))
        (decision,) = sched.reschedule(Resources.from_counts((2, 2)))
        assert decision.action in ("warm", "full")  # warm unless refit fails
        assert decision.period is not None

    def test_starved_budget_reuses_valid_schedule(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        sched.reschedule(Resources.from_counts((2, 2)))
        # Grow the platform under a budget too small even for a warm start:
        # the old solution still fits, so the ladder lands on reuse.
        sched.deadline = WARM_COST / 2
        (decision,) = sched.reschedule(Resources.from_counts((3, 3)))
        assert decision.action == "reuse"
        assert decision.cost == 0.0

    def test_capacity_loss_sheds_latest_arrivals(self):
        sched = IncrementalScheduler()
        for i in range(4):
            sched.admit(_chain(i, f"c{i}"))
        decisions = sched.reschedule(Resources.from_counts((1, 1)))
        actions = _actions(decisions)
        assert actions["c2"] == "shed" and actions["c3"] == "shed"
        assert actions["c0"] != "shed" and actions["c1"] != "shed"

    def test_zero_capacity_sheds_everything(self):
        sched = IncrementalScheduler()
        sched.admit(_chain(0, "a"))
        (decision,) = sched.reschedule(Resources.from_counts((0, 0)))
        assert decision.action == "shed"
        assert decision.period is None and decision.counts == ()

    def test_every_action_is_a_known_rung(self):
        assert set(RESCHED_ACTIONS) == {"keep", "warm", "full", "reuse", "shed"}


class TestWarmQualityGate:
    def test_warm_period_within_heuristic_bound(self):
        """The acceptance gate: a warm-started period never exceeds the
        proven feasibility upper bound of a cold solve."""
        chains = {f"c{i}": _chain(i, f"c{i}") for i in range(3)}
        sched = IncrementalScheduler(certify=True)
        for chain in chains.values():
            sched.admit(chain)
        sched.reschedule(Resources.from_counts((6, 6)))
        decisions = sched.reschedule(Resources.from_counts((5, 6)))
        warms = [d for d in decisions if d.action == "warm"]
        assert warms, "expected at least one warm start in a platform shrink"
        for decision in warms:
            _, upper = optimality_bracket(
                ChainProfile(chains[decision.name]),
                Resources.from_counts(decision.counts),
            )
            assert decision.period <= upper * (1 + 1e-9)

    def test_warm_solution_triplets_are_valid(self):
        sched = IncrementalScheduler()
        chain = _chain(3, "a")
        sched.admit(chain)
        sched.reschedule(Resources.from_counts((3, 3)))
        (decision,) = sched.reschedule(Resources.from_counts((2, 3)))
        solution = Solution.from_triplets(decision.triplets)
        assert solution.is_valid(
            ChainProfile(chain), Resources.from_counts(decision.counts)
        )


class TestDeadline:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            IncrementalScheduler(deadline=-1.0)

    def test_round_cost_never_exceeds_deadline(self):
        deadline = 10.0
        sched = IncrementalScheduler(deadline=deadline)
        for i in range(6):
            sched.admit(_chain(i, f"c{i}"))
        for counts in ((3, 3), (2, 2), (3, 3), (1, 1), (3, 3)):
            decisions = sched.reschedule(Resources.from_counts(counts))
            assert sum(d.cost for d in decisions) <= deadline + 1e-12

    def test_unbounded_deadline_solves_everyone(self):
        sched = IncrementalScheduler()
        for i in range(5):
            sched.admit(_chain(i, f"c{i}"))
        decisions = sched.reschedule(Resources.from_counts((3, 3)))
        assert all(d.action == "full" for d in decisions)


class TestAllocation:
    def test_allocation_is_deterministic(self):
        def run():
            sched = IncrementalScheduler()
            for i in range(5):
                sched.admit(_chain(i, f"c{i}"))
            return sched.reschedule(Resources.from_counts((4, 3)))

        assert run() == run()

    def test_kept_chains_get_at_least_one_core(self):
        sched = IncrementalScheduler()
        for i in range(5):
            sched.admit(_chain(i, f"c{i}"))
        decisions = sched.reschedule(Resources.from_counts((3, 2)))
        for decision in decisions:
            if decision.action != "shed":
                assert sum(decision.counts) >= 1

    def test_allocations_never_exceed_the_budget(self):
        sched = IncrementalScheduler()
        for i in range(7):
            sched.admit(_chain(i, f"c{i}"))
        decisions = sched.reschedule(Resources.from_counts((4, 4)))
        used = [0, 0]
        for decision in decisions:
            for v, c in enumerate(decision.counts):
                used[v] += c
        assert used[0] <= 4 and used[1] <= 4


class TestMetrics:
    def test_ladder_counters_are_recorded(self):
        metrics = MetricsRegistry()
        sched = IncrementalScheduler(metrics=metrics)
        sched.admit(_chain(0, "a"))
        budget = Resources.from_counts((2, 2))
        sched.reschedule(budget)
        sched.reschedule(budget)
        counters = dict(metrics.snapshot().counters)
        assert counters.get("sim.resched.full") == 1.0
        assert counters.get("sim.resched.keep") == 1.0


class TestRoundCostsWhatChanged:
    """Standing decisions and the remembered platform split."""

    def _loaded(self, chains=6, metrics=None):
        sched = IncrementalScheduler(metrics=metrics)
        for i in range(chains):
            sched.admit(_chain(i, f"c{i}"))
        return sched

    def test_keep_is_the_previous_decision_at_cost_zero(self):
        sched = self._loaded(3)
        budget = Resources.from_counts((3, 3))
        first = sched.reschedule(budget)
        second = sched.reschedule(budget)
        for before, after in zip(first, second):
            assert after.action == "keep" and after.cost == 0.0
            assert (after.name, after.counts, after.period, after.triplets) == (
                before.name, before.counts, before.period, before.triplets
            )
        # The standing decision is one object, repeated round after round.
        assert all(a is b for a, b in zip(second, sched.reschedule(budget)))

    def test_a_chain_still_shed_repeats_its_shed_decision(self):
        sched = self._loaded(4)
        budget = Resources.from_counts((1, 1))
        first = sched.reschedule(budget)
        second = sched.reschedule(budget)
        assert [d.action for d in first[2:]] == ["shed", "shed"]
        assert all(a is b for a, b in zip(first[2:], second[2:]))

    def test_split_is_recomputed_only_when_its_inputs_move(self, monkeypatch):
        sched = self._loaded(6)
        calls = []
        allocate = sched._allocate
        monkeypatch.setattr(
            sched, "_allocate", lambda kept, available: calls.append(1) or allocate(kept, available)
        )
        budget = Resources.from_counts((2, 2))  # four kept, two shed
        sched.reschedule(budget)
        assert len(calls) == 1
        sched.reschedule(budget)  # nothing moved
        sched.admit(_chain(9, "late"))  # arrival beyond capacity
        sched.reschedule(budget)
        sched.mutate(_chain(10, "c5"))  # mutation of a shed chain
        sched.reschedule(budget)
        sched.depart("c4")  # departure of a shed chain
        decisions = sched.reschedule(budget)
        assert len(calls) == 1
        assert [d.action for d in decisions] == ["keep"] * 4 + ["shed"] * 2
        sched.mutate(_chain(11, "c0"))  # a kept chain's load moved
        sched.reschedule(budget)
        assert len(calls) == 2
        sched.depart("c1")  # a kept chain left: c5 is promoted
        sched.reschedule(budget)
        assert len(calls) == 3
        sched.reschedule(Resources.from_counts((2, 1)))  # the platform moved
        assert len(calls) == 4

    def test_a_name_that_returns_is_a_new_chain_for_the_split(self):
        sched = self._loaded(2)
        budget = Resources.from_counts((2, 2))
        sched.reschedule(budget)
        sched.depart("c1")
        sched.admit(_chain(7, "c1"))  # same name, revision 0 again, new seq
        decisions = sched.reschedule(budget)
        assert _actions(decisions)["c1"] == "full"
        fresh = IncrementalScheduler()
        fresh.admit(_chain(0, "c0"))
        fresh.admit(_chain(7, "c1"))
        assert [d.counts for d in fresh.reschedule(budget)] == [d.counts for d in decisions]

    def test_keep_and_shed_are_counted_per_chain(self):
        metrics = MetricsRegistry()
        sched = self._loaded(5, metrics)
        budget = Resources.from_counts((2, 1))
        for _ in range(3):
            sched.reschedule(budget)
        counters = dict(metrics.snapshot().counters)
        assert counters["sim.resched.keep"] == 6.0
        assert counters["sim.resched.shed"] == 6.0
        assert sum(
            v for k, v in counters.items() if k.startswith("sim.resched.")
        ) == 15.0

    def test_apply_decision_restores_the_standing_decisions(self):
        live = self._loaded(5)
        budget = Resources.from_counts((2, 2))
        live.reschedule(Resources.from_counts((3, 3)))
        journaled = live.reschedule(budget)
        replayed = self._loaded(5)
        for decision in journaled:
            replayed.apply_decision(decision, "journal, line 1")
        assert replayed.reschedule(budget) == live.reschedule(budget)
        assert {d.action for d in replayed.reschedule(budget)} == {"keep", "shed"}
