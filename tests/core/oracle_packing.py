"""Differential oracle for :mod:`repro.core.packing`.

The paper's ``ComputeStage`` (Algo. 2), its validity check and the first-fit
``ComputeSolution`` (Algo. 4) exactly as the library carried them before the
integer probe: written on the *public* :class:`ChainProfile` queries
(``max_packing``, ``required_cores``, ``is_replicable``,
``final_replicable_task``, ``stage_weight``), each with its own interval and
period guards, building ``StagePlan``/``Stage``/``Solution`` objects at every
step.  Slow and literal on purpose — ``test_greedy_probe.py`` holds the
production probe to it plan for plan.
"""

from __future__ import annotations

from repro.core.chain_stats import ChainProfile
from repro.core.packing import StagePlan
from repro.core.solution import Solution
from repro.core.stage import Stage
from repro.core.types import CoreIndex, Resources


def oracle_compute_stage(
    profile: ChainProfile,
    start: int,
    available: int,
    core_type: CoreIndex,
    period: float,
) -> StagePlan:
    """Algo. 2, line by line."""
    last = profile.n - 1

    # Line 1-2: pack with one core, then count the cores this interval needs.
    end = profile.max_packing(start, 1, core_type, period)
    cores = profile.required_cores(start, end, core_type, period)

    # Lines 3-14: replicable, non-final stages may extend across the whole
    # run of consecutive replicable tasks and absorb more cores.
    if end != last and profile.is_replicable(start, end):
        end = profile.final_replicable_task(start, end)
        cores = profile.required_cores(start, end, core_type, period)
        if cores > available:
            # Lines 5-7: not enough cores for the full replicable run.
            end = profile.max_packing(start, available, core_type, period)
            cores = available
        elif end != last and cores >= 2:
            # Lines 8-12: give one core up when the leftover tasks ride along
            # with the next (sequential) task on a single core — and only
            # when the shorter stage actually fits.
            shorter = profile.max_packing(start, cores - 1, core_type, period)
            if (
                profile.stage_weight(start, shorter, cores - 1, core_type)
                <= period
                and profile.required_cores(
                    shorter + 1, end + 1, core_type, period
                )
                == 1
            ):
                end = shorter
                cores = cores - 1

    return StagePlan(end=end, cores=cores)


def oracle_stage_fits(
    profile: ChainProfile,
    start: int,
    plan: StagePlan,
    available: int,
    core_type: CoreIndex,
    period: float,
) -> bool:
    """At least one and at most ``available`` cores, weight within ``P``."""
    if plan.cores < 1 or plan.cores > available:
        return False
    return (
        profile.stage_weight(start, plan.end, plan.cores, core_type) <= period
    )


def oracle_first_fit(order):
    """The object-building ``ComputeSolution`` of FERTAC (``order`` its
    efficiency order) and OTAC (one type), as a plain solution builder for
    the binary-search driver's generic path."""

    def compute_solution(
        profile: ChainProfile, resources: Resources, period: float
    ) -> Solution:
        last = profile.n - 1
        remaining = list(resources.counts)
        stages: list[Stage] = []
        start = 0
        while True:
            for core_type in order:
                available = remaining[int(core_type)]
                plan = oracle_compute_stage(
                    profile, start, available, core_type, period
                )
                if oracle_stage_fits(
                    profile, start, plan, available, core_type, period
                ):
                    break
            else:
                return Solution.empty()
            stages.append(Stage(start, plan.end, plan.cores, core_type))
            if plan.end == last:
                return Solution(stages)
            remaining[int(core_type)] -= plan.cores
            start = plan.end + 1

    return compute_solution
