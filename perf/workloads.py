"""The seven workloads: what each runs, and how it is timed.

Every workload makes its inputs from the seed alone and runs a fixed amount
of work for it (sized to ``--seconds`` at the parent commit on the sizing
box), so two commits measured at one seed solve the same instances.  Times
are reference-speed seconds (see :mod:`clock`).

Only the surfaces listed in ``perf/README.md`` ("stable-surface rule") are
called, so that the ROADMAP's consolidation items can land without editing
the benchmark.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import clock

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The paper's Table I sweep (Section VI-A): budgets outer, stateless ratios inner.
BUDGETS = ((16, 4), (10, 10), (4, 16))
RATIOS = (0.2, 0.5, 0.8)
NUM_TASKS = 20
SOLVE_STRATEGIES = ("herad", "2catac", "fertac")

#: Seconds of work between two reference-kernel calls of an in-process loop.
_BLOCK_S = 0.04


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts of one run (``--seconds 10`` sizing)."""

    table1_chains: int = 10
    cli_passes: "dict[int, int]" = field(default_factory=lambda: {1: 3, 2: 4})
    replay_passes: int = 500
    # strategy -> (instances, rounds).  2CATAC's latency is heavier-tailed
    # than a log-normal with sigma 1 (p90 = 3.5 x p50, rare 0.5 s cases), so
    # the seed alone moves its p90 by 0.20 (IQR / median over seeds) at 120
    # instances: its time buys 500 instances seen once, not 120 seen thrice.
    solve_plan: "dict[str, tuple[int, int]]" = field(
        default_factory=lambda: {
            "herad": (300, 2), "2catac": (500, 1), "fertac": (600, 6)
        }
    )
    # A pass of solve_single is this many consecutive instances, and wall_s
    # the median pass: a median of means, which one 0.5 s instance cannot move.
    solve_pass: int = 50
    sim_events: int = 10_000
    sim_passes: int = 3
    setup_repeats: int = 3
    # herad_reference takes 0.15-0.35 s per cell; 50 cells would outlast the run.
    reference_cells: int = 4
    probe_chains: int = 3
    probe_events: int = 2_000

    def scaled(self, seconds: float) -> "Sizes":
        """The same inputs, repeated in proportion to ``seconds / 10``."""

        def repeats(count: int) -> int:
            return max(1, round(count * seconds / 10.0))

        return replace(
            self,
            cli_passes={jobs: repeats(n) for jobs, n in self.cli_passes.items()},
            replay_passes=repeats(self.replay_passes),
            solve_plan={
                s: (count, repeats(rounds)) for s, (count, rounds) in self.solve_plan.items()
            },
            sim_passes=repeats(self.sim_passes),
        )


FULL = Sizes()
QUICK = Sizes(
    table1_chains=1,
    cli_passes={1: 1, 2: 1},
    replay_passes=10,
    solve_plan={"herad": (6, 1), "2catac": (6, 1), "fertac": (6, 2)},
    solve_pass=3,
    sim_events=300,
    sim_passes=2,
    setup_repeats=1,
    reference_cells=1,
    probe_chains=1,
    probe_events=200,
)


@dataclass
class Measurement:
    """Everything one untraced run of one workload measured.

    ``wall_s``/``cpu_s`` hold one value per timed pass, ``setup_s`` one per
    set-up repeat, ``latencies_ms`` the per-op latencies the percentiles are
    taken over — one list per stratum of ops, the percentile being the mean
    of the strata's.  ``outputs`` is what :mod:`verify` checks.
    """

    workload: str
    seed: int
    ops_per_pass: int
    setup_s: "list[float]" = field(default_factory=list)
    wall_s: "list[float]" = field(default_factory=list)
    cpu_s: "list[float]" = field(default_factory=list)
    raw_wall_s: "list[float]" = field(default_factory=list)
    ref_ms: "list[float]" = field(default_factory=list)
    latencies_ms: "list[list[float]]" = field(default_factory=lambda: [[]])
    peak_rss_mb: float = 0.0
    outputs: "dict[str, Any]" = field(default_factory=dict)

    def add_pass(self, calls: "list[Timed]") -> None:
        """One timed pass, made of ``calls``."""
        self.wall_s.append(sum(call.wall_s for call in calls))
        self.cpu_s.append(sum(call.cpu_s for call in calls))
        self.raw_wall_s.append(sum(call.raw_s for call in calls))
        self.ref_ms.append(statistics.fmean(call.ref_ms for call in calls))


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th population drawn for ``seed``."""
    return seed * 1000 + index


def cells_per_table(chains: int) -> int:
    return len(BUDGETS) * len(RATIOS) * chains * 5


def child_env() -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


#: The CPUs this process may use, read before any thread pins itself.
_CPUS = sorted(os.sched_getaffinity(0))


def usable_cpus(count: int) -> "list[int]":
    return _CPUS[:count]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- subprocess workloads ------------------------------------------------------


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: "list[str]", sampler: clock.SpeedSampler) -> "Timed":
    """``python <argv>`` to completion, timed from spawn to last byte.

    The value is the ``CompletedProcess``; the CPU is its whole tree's.
    """
    return sampled(
        sampler,
        lambda: subprocess.run(
            [sys.executable, *argv], env=child_env(), capture_output=True, check=False
        ),
        cpu_clock=_children_cpu,
    )


def table1_argv(chains: int, seed: int, jobs: int) -> "list[str]":
    return [
        "-m", "repro", "table1",
        "--chains", str(chains), "--seed", str(seed), "--jobs", str(jobs),
    ]


def run_table1_cli(name: str, jobs: int, seed: int, sizes: Sizes) -> Measurement:
    """``python -m repro table1 --chains N --seed S --jobs J``, spawn to last byte.

    Each pass draws its own population (``sub_seed``): the seed alone moves
    one 10-chain table's solve time by 0.10, so three populations are worth
    more than one population timed three times.
    """
    cpus = usable_cpus(jobs)
    os.sched_setaffinity(0, cpus)  # the children inherit it
    result = Measurement(name, seed, cells_per_table(sizes.table1_chains))
    tables = []
    with clock.SpeedSampler(cpus) as sampler:
        for _ in range(sizes.setup_repeats):
            # The first one in a fresh checkout compiles the .pyc files.
            warm = run_child(["-c", "import repro.cli"], sampler)
            if warm.value.returncode != 0:
                raise RuntimeError(warm.value.stderr.decode(errors="replace"))
            result.setup_s.append(warm.wall_s)
        for index in range(sizes.cli_passes[jobs]):
            population = sub_seed(seed, index)
            run = run_child(
                table1_argv(sizes.table1_chains, population, jobs), sampler
            )
            result.add_pass([run])
            result.latencies_ms[0].append(run.wall_s * 1e3)
            tables.append(
                {
                    "seed": population,
                    "stdout": run.value.stdout.decode(errors="replace"),
                    "returncode": run.value.returncode,
                    "stderr": run.value.stderr.decode(errors="replace")[-2000:],
                }
            )
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result.peak_rss_mb = children.ru_maxrss / 1024.0
    result.outputs = {"tables": tables, "chains": sizes.table1_chains}
    return result


# -- in-process workloads ------------------------------------------------------


def timed(body: "Callable[[], Any]") -> "tuple[Any, float]":
    """``body()`` and its reference-speed seconds, bracketed by the kernel."""
    ref_open = clock.ref_seconds()
    start = time.perf_counter()
    value = body()
    raw = time.perf_counter() - start
    return value, raw * clock.speed_factor(ref_open, clock.ref_seconds())


@dataclass
class Timed:
    """One timed call: raw seconds, and the factor that normalises them."""

    value: Any
    raw_s: float
    raw_cpu_s: float
    factor: float = 0.0
    ref_ms: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.factor

    @property
    def cpu_s(self) -> float:
        return self.raw_cpu_s * self.factor


def interleaved(count: int, op: "Callable[[int], Any]") -> "list[Timed]":
    """``op(0) .. op(count - 1)``, each timed, the kernel run every ``_BLOCK_S``."""
    timed: "list[Timed]" = []
    ref_open = clock.ref_seconds()
    while len(timed) < count:
        first = len(timed)
        block_start = time.perf_counter()
        while len(timed) < count and time.perf_counter() - block_start < _BLOCK_S:
            cpu_start = time.thread_time()
            start = time.perf_counter()
            value = op(len(timed))
            end = time.perf_counter()
            timed.append(Timed(value, end - start, time.thread_time() - cpu_start))
        ref_close = clock.ref_seconds()
        for entry in timed[first:]:
            entry.factor = clock.speed_factor(ref_open, ref_close)
            entry.ref_ms = (ref_open + ref_close) * 500.0
        ref_open = ref_close
    return timed


def sampled(
    sampler: clock.SpeedSampler,
    body: "Callable[[], Any]",
    cpu_clock: "Callable[[], float]" = time.thread_time,
) -> Timed:
    """One long call that cannot interleave the kernel: sampled beside it."""
    cpu_start = cpu_clock()
    start = time.monotonic()
    value = body()
    end = time.monotonic()
    used = cpu_clock() - cpu_start
    factor = sampler.factor(start, end)
    return Timed(value, end - start, used, factor, clock.SAMPLED_NOMINAL_S / factor * 1e3)


def run_table1_replay(seed: int, sizes: Sizes) -> Measurement:
    """Warm ``render(run(...))`` on a memo one cold run has filled.

    ``engine`` the other way round: memo reads where ``table1_cli`` writes.
    Generation, fingerprinting, aggregation and rendering do the work and
    the solvers none.  Set-up is the one cold run (3 s; not repeated).
    """
    cpu = usable_cpus(1)[0]
    clock.pin_to(cpu)
    chains = sizes.table1_chains
    result = Measurement("table1_replay", seed, cells_per_table(chains))

    def load():
        from repro.engine import CampaignEngine, MemoCache
        from repro.experiments import table1

        return CampaignEngine, MemoCache, table1

    (CampaignEngine, MemoCache, table1), import_s = timed(load)
    memo = MemoCache()
    engine = CampaignEngine(jobs=1, memo=memo)

    def one_pass(_: int = 0) -> str:
        return table1.render(
            table1.run(num_chains=chains, seed=seed, jobs=1, engine=engine)
        )

    with clock.SpeedSampler([cpu]) as sampler:
        cold = sampled(sampler, one_pass)
    result.setup_s.append(import_s + cold.wall_s)
    filled = memo.stats

    # Compared inside the pass (a microsecond) so that hundreds of tables are not kept.
    passes = interleaved(sizes.replay_passes, lambda _: one_pass() == cold.value)
    warm = memo.stats
    for entry in passes:
        result.add_pass([entry])
    result.latencies_ms = [[entry.wall_s * 1e3 for entry in passes]]
    result.peak_rss_mb = _self_rss_mb()
    result.outputs = {
        "cold_text": cold.value,
        "same_bytes": all(entry.value for entry in passes),
        "chains": chains,
        "table_seed": seed,
        "memo": {
            "fill_misses": filled.misses,
            "fill_hits": filled.hits,
            "replay_hits": warm.hits - filled.hits,
            "replay_misses": warm.misses - filled.misses,
        },
        "passes": len(passes),
    }
    return result


def solve_instances_for(seed: int, count: int):
    """The ``solve_single`` population: ``count`` chains, the budgets in turn.

    One budget per chain, not all three: a chain that is hard at one budget
    is hard at the others, and 300 independent instances steady a percentile
    more than 100 chains seen three times.
    """
    from repro.core.chain_stats import ChainProfile
    from repro.core.types import Resources
    from repro.workloads.synthetic import GeneratorConfig, chain_batch

    config = GeneratorConfig(num_tasks=NUM_TASKS, stateless_ratio=0.5)
    budgets = [Resources(*budget) for budget in BUDGETS]
    return [
        (chain, ChainProfile(chain), budgets[index % len(budgets)])
        for index, chain in enumerate(chain_batch(count, config, seed=seed + 1))
    ]


def run_solve_single(strategy: str, seed: int, sizes: Sizes) -> Measurement:
    """``get_strategy(s)(profile, resources)`` at batch size one.

    The runtime user's wait for one schedule (the paper's Fig. 3/4 axis).
    A pass is ``Sizes.solve_pass`` consecutive instances; an instance's
    latency is its minimum over the rounds (the solvers are deterministic,
    so what exceeds the minimum is the neighbours'), and the percentiles are
    taken across instances, so the tail is the hard instances, not the noisy
    moments.
    """
    clock.pin_to(usable_cpus(1)[0])
    name = f"solve_single.{strategy}"
    count, rounds = sizes.solve_plan[strategy]

    def load():
        from repro.core.registry import get_strategy

        return get_strategy(strategy)

    solve, import_s = timed(load)

    def prepare():
        # Warm up on a population of its own: five 2CATAC solves drawn from
        # the seed cost 0.05-1 s, which would be most of set-up's spread.
        for _, profile, resources in solve_instances_for(-1, 5):
            solve(profile, resources)
        return solve_instances_for(seed, count)

    instances = []
    setup_s = []
    for _ in range(sizes.setup_repeats):
        instances, seconds = timed(prepare)
        setup_s.append(import_s + seconds)
    result = Measurement(name, seed, sizes.solve_pass, setup_s=setup_s)

    best = [math.inf] * len(instances)
    outcomes = []
    for _ in range(rounds):
        solved = interleaved(
            len(instances), lambda i: solve(instances[i][1], instances[i][2])
        )
        outcomes = outcomes or [entry.value for entry in solved]
        best = [min(least, entry.wall_s) for least, entry in zip(best, solved)]
        for first in range(0, len(solved), sizes.solve_pass):
            result.add_pass(solved[first : first + sizes.solve_pass])
    # One stratum per budget: pooled, FERTAC's median falls between the modes
    # of two budgets and moves 0.2-0.3 between two runs of the same inputs.
    result.latencies_ms = [
        [seconds * 1e3 for seconds in best[budget :: len(BUDGETS)]]
        for budget in range(len(BUDGETS))
    ]
    result.peak_rss_mb = _self_rss_mb()
    result.outputs = {
        "strategy": strategy,
        "instances": instances,
        "outcomes": outcomes,
    }
    return result


LADDER = ("keep", "warm", "full", "reuse", "shed")


def sim_counters(result: Any) -> "dict[str, int]":
    counters = dict(result.metrics.counters)
    table = {rung: int(counters.get(f"sim.resched.{rung}", 0)) for rung in LADDER}
    table["scheduleless"] = int(counters.get("sim.invariant.scheduleless", 0))
    table["overcommit"] = int(counters.get("sim.invariant.overcommit", 0))
    return table


def run_sim_bursty(seed: int, sizes: Sizes) -> Measurement:
    """``simulate(bursty_trace(N, (4, 4), seed), SimConfig())``.

    The online path: thousands of tiny warm-starts and cold 2CATAC solves on
    8-task chains, no batches.  The trace is built again before each pass
    (fresh chain objects, as ``repro simulate`` pays); event *i* is the same
    work in every pass, so its latency is the minimum over the passes.
    """
    cpu = usable_cpus(1)[0]
    clock.pin_to(cpu)
    result = Measurement("sim_bursty", seed, sizes.sim_events)

    def load():
        from repro.sim import SimConfig, bursty_trace, simulate

        return SimConfig, bursty_trace, simulate

    (SimConfig, bursty_trace, simulate), import_s = timed(load)

    def build():
        return bursty_trace(sizes.sim_events, (4, 4), seed=seed)

    for _ in range(sizes.setup_repeats):
        _, seconds = timed(build)
        result.setup_s.append(import_s + seconds)

    best = [math.inf] * sizes.sim_events
    counters = []
    events = 0
    with clock.SpeedSampler([cpu]) as sampler:
        for _ in range(sizes.sim_passes):
            trace = build()
            run = sampled(sampler, lambda: simulate(trace, SimConfig()))
            result.add_pass([run])
            latencies = run.value.resched_seconds
            best = [min(least, raw * run.factor) for least, raw in zip(best, latencies)]
            counters.append(sim_counters(run.value))
            events = len(run.value.records)
    result.latencies_ms = [[seconds * 1e3 for seconds in best]]
    result.peak_rss_mb = _self_rss_mb()
    result.outputs = {"counters": counters, "events": events}
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Percentile of ``lat_tail_ms``: a high one with ten samples beyond it;
    #: the upper quartile where a run has only a handful of passes (their
    #: maximum doubles with one stalled pool spawn).
    tail: float
    run: "Callable[[int, Sizes], Measurement]"


def _solve(strategy: str) -> "Callable[[int, Sizes], Measurement]":
    return lambda seed, sizes: run_solve_single(strategy, seed, sizes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1_cli",
            "The headline user path, serial with default flags, process start to "
            "last byte: core solve ~85 %, import ~10 %, engine ~0. The plain "
            "single-process baseline.",
            75.0,
            lambda seed, sizes: run_table1_cli("table1_cli", 1, seed, sizes),
        ),
        Workload(
            "table1_jobs",
            "Same cells with --jobs 2: engine plan/dispatch/shm/pool-spawn is most "
            "of the non-solve wall, so an engine gain shows here and a solver gain "
            "shows less than on table1_cli.",
            75.0,
            lambda seed, sizes: run_table1_cli("table1_jobs", 2, seed, sizes),
        ),
        Workload(
            "table1_replay",
            "Warm memo: generation, fingerprints, memo reads, aggregate and render "
            "do the work and core solve none. A solver change must not move it; a "
            "fingerprint/memo change moves only it.",
            90.0, run_table1_replay,
        ),
        Workload(
            "solve_single.herad",
            "One optimal schedule at batch size one (Fig. 3/4 axis): the polynomial "
            "DP, numpy-dispatch-bound; core only, engine none.",
            90.0, _solve("herad"),
        ),
        Workload(
            "solve_single.2catac",
            "One 2CATAC schedule at batch size one: exponential cases make the tail "
            "(p90 3.5x p50), which a mean or a campaign wall hides.",
            # Not p90: over 500 instances the seed alone moves it by 0.12-0.22.
            75.0, _solve("2catac"),
        ),
        Workload(
            "solve_single.fertac",
            "One FERTAC schedule (1.6 ms): the scalar-only strategies that dominate "
            "a campaign once HeRAD and 2CATAC run through the batch kernels.",
            90.0, _solve("fertac"),
        ),
        Workload(
            "sim_bursty",
            "The online path: sim event loop + warm starts + cold 2CATAC on 8-task "
            "chains at tiny budgets; a kernel tuned for big batches that taxes tiny "
            "B=1 solves shows here.",
            95.0, run_sim_bursty,
        ),
    )
}
