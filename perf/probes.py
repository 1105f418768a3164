"""Outside-in layer probes and the traced pass (``--trace 1``).

Every number is taken from outside, by timing calls into a layer's public
functions; "self" times are a whole call's wall minus what the probes of the
layers beneath it measured on the same inputs.  Nothing here feeds an
end-to-end metric.

The probes run on inputs of their own, made from the seed: Table I at
``Sizes.probe_chains`` chains per scenario (the *probe campaign*), the first
``solve_single`` instances, and a ``Sizes.probe_events``-event bursty trace.
They are the same for every workload, so every traced run reports every
per-layer metric; what differs per workload is the traced pass (the
``self_s.<layer>`` rows and ``perf.trace_overhead_pct``).

A probe whose target is gone on some later commit reports ``null`` with the
reason (see :func:`guarded`); it never stops the run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import clock
import spans
import verify
import workloads
from workloads import BUDGETS, NUM_TASKS, RATIOS, Sizes, timed

#: Exceptions that mean "this surface is not there (any more)".
GONE = (ImportError, AttributeError, TypeError)


def guarded(
    names: "list[str]", probe: "Callable[[], dict[str, float]]",
    reasons: "dict[str, str]",
) -> "dict[str, float | None]":
    """``probe()``'s metrics, or ``None`` for each of ``names`` if its target is gone."""
    try:
        values = probe()
    except GONE as error:
        reason = f"{type(error).__name__}: {error}"
        reasons.update({name: reason for name in names})
        return {name: None for name in names}
    return {name: values[name] for name in names}


def scenarios() -> "list[tuple[Any, float]]":
    from repro.core.types import Resources

    return [(Resources(*budget), ratio) for budget in BUDGETS for ratio in RATIOS]


def draw(chains: int, ratio: float, seed: int) -> "list[Any]":
    from repro.workloads.synthetic import GeneratorConfig, chain_batch

    config = GeneratorConfig(num_tasks=NUM_TASKS, stateless_ratio=ratio)
    return list(chain_batch(chains, config, seed=seed))


class Probes:
    """The probe suite on one seed's inputs; each method is one layer's group."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = workloads.sub_seed(seed, 0)
        self.sizes = sizes
        self.chains = sizes.probe_chains
        self.reasons: "dict[str, str]" = {}
        # Totals that later groups subtract; filled by the groups that measure them.
        self.solve_s = 0.0
        self.generate_s = 0.0
        self.replay_s = 0.0
        self.run_wall_s = 0.0
        self.warm_engine: Any = None
        self.cli_matches = True

    # -- cli -------------------------------------------------------------------

    def cli(self) -> "dict[str, float]":
        from repro.engine import CampaignEngine
        from repro.experiments import table1

        cpus = workloads.usable_cpus(1)
        with clock.SpeedSampler(cpus) as sampler:
            imports = [
                workloads.run_child(["-c", "import repro"], sampler).wall_s
                for _ in range(self.sizes.setup_repeats)
            ]
            invoked = workloads.run_child(
                workloads.table1_argv(self.chains, self.seed, 1), sampler
            )
        engine = CampaignEngine(jobs=1, memo=True)
        text, inside = timed(
            lambda: table1.render(
                table1.run(num_chains=self.chains, seed=self.seed, jobs=1, engine=engine)
            )
        )
        self.run_wall_s = inside
        self.cli_matches = invoked.value.stdout.decode().rstrip("\n") == text
        return {
            "cli.import_s": statistics.median(imports),
            "cli.overhead_s": invoked.wall_s - inside,
        }

    # -- workloads, core -------------------------------------------------------

    def generate(self) -> "dict[str, float]":
        drawn, seconds = timed(
            lambda: [draw(self.chains, ratio, self.seed) for _, ratio in scenarios()]
        )
        self.generate_s = seconds
        return {
            "workloads.generate_s": seconds,
            "workloads.chains": float(sum(len(batch) for batch in drawn)),
        }

    def profile(self) -> "dict[str, float]":
        from repro.core.chain_stats import ChainProfile

        fresh = [c for _, ratio in scenarios() for c in draw(self.chains, ratio, self.seed)]
        _, profile_s = timed(lambda: [ChainProfile(chain) for chain in fresh])
        _, fingerprint_s = timed(lambda: [chain.fingerprint for chain in fresh])
        return {"core.profile_s": profile_s, "core.fingerprint_s": fingerprint_s}

    def solve(self) -> "dict[str, float]":
        from repro.core.chain_stats import ChainProfile
        from repro.core.registry import PAPER_ORDER, get_strategy, solve_batch

        scalar = dict.fromkeys(PAPER_ORDER, 0.0)
        batch = dict.fromkeys(workloads.SOLVE_STRATEGIES, 0.0)
        calls = 0
        for resources, ratio in scenarios():
            profiles = [ChainProfile(c) for c in draw(self.chains, ratio, self.seed)]
            for strategy in PAPER_ORDER:
                solver = get_strategy(strategy)
                _, seconds = timed(lambda: [solver(p, resources) for p in profiles])
                scalar[strategy] += seconds
                calls += len(profiles)
            for strategy in batch:
                _, seconds = timed(lambda: solve_batch(profiles, resources, strategy))
                batch[strategy] += seconds
        self.solve_s = sum(scalar.values())
        values = {f"core.solve_s.{s}": seconds for s, seconds in scalar.items()}
        values["core.solve_calls"] = float(calls)
        values["core.solve_share"] = self.solve_s / self.run_wall_s if self.run_wall_s else 0.0
        for strategy, seconds in batch.items():
            values[f"core.kernels.batch_s.{strategy}"] = seconds
            values[f"core.kernels.batch_speedup.{strategy}"] = scalar[strategy] / seconds
        return values

    def batch_of_one(self) -> "dict[str, float]":
        from repro.core.registry import solve_batch

        instances = workloads.solve_instances_for(self.seed, self.chains * 6)
        values = {}
        for strategy in workloads.SOLVE_STRATEGIES:
            samples = [
                timed(lambda: solve_batch([profile], resources, strategy))[1] * 1e3
                for _, profile, resources in instances
            ]
            values[f"core.kernels.batch1_ms.{strategy}"] = statistics.median(samples)
        return values

    def counts(self) -> "dict[str, float]":
        from repro.core.registry import PAPER_ORDER
        from repro.engine import CampaignEngine
        from repro.obs import ObsConfig

        engine = CampaignEngine(jobs=1, memo=False, obs=ObsConfig(metrics=True))
        for resources, ratio in scenarios():
            engine.solve_instances(
                draw(self.chains, ratio, self.seed), resources, PAPER_ORDER, jobs=1
            )
        counters = dict(engine.obs.metrics.snapshot().counters)
        return {
            "core.count.solves": counters["solve.count"],
            "core.count.binary_search_iterations": counters["binary_search.iterations"],
            "core.count.herad_dp_cells": counters["herad.dp_cells"],
            "core.count.compute_stage_calls": counters["packing.compute_stage_calls"],
        }

    # -- engine ----------------------------------------------------------------

    def engine_serial(self) -> "dict[str, float]":
        from repro.core.registry import PAPER_ORDER
        from repro.engine import CampaignEngine, MemoCache

        # The path table1_cli takes: a private memo, cold, then the same
        # campaigns again, which the memo now answers.
        memo = MemoCache()
        engine = CampaignEngine(jobs=1, memo=memo)
        self.warm_engine = engine
        serial_s = replay_s = 0.0
        hits = lookups = cells = 0
        for resources, ratio in scenarios():
            drawn = draw(self.chains, ratio, self.seed)

            def campaign() -> Any:
                return engine.solve_instances(drawn, resources, PAPER_ORDER, jobs=1)

            serial_s += timed(campaign)[1]
            before = memo.stats
            replay_s += timed(campaign)[1]
            after = memo.stats
            hits += after.hits - before.hits
            lookups += (after.hits - before.hits) + (after.misses - before.misses)
            cells += len(drawn) * len(PAPER_ORDER)
        self.replay_s = replay_s
        return {
            "engine.serial_self_s": serial_s - self.solve_s,
            "engine.replay_cells_per_s": cells / replay_s,
            "engine.memo_hit_ratio": hits / lookups,
        }

    def engine_plan(self) -> "dict[str, float]":
        from repro.core.registry import PAPER_ORDER
        from repro.engine import PendingInstance, plan_units

        _, ratio = scenarios()[0]
        pending = [
            PendingInstance(index=i, chain=chain, strategies=tuple(PAPER_ORDER))
            for i, chain in enumerate(draw(self.sizes.table1_chains, ratio, self.seed))
        ]
        units, seconds = timed(lambda: plan_units(pending, jobs=2))
        return {"engine.plan_s": seconds, "engine.plan_units": float(len(units))}

    def engine_jobs(self) -> "dict[str, float]":
        from repro.core.registry import PAPER_ORDER
        from repro.engine import CampaignEngine
        from repro.obs import ObsConfig

        cpus = workloads.usable_cpus(2)
        resources, ratio = scenarios()[4]  # (10B, 10L), SR 0.5
        drawn = draw(self.sizes.table1_chains, ratio, self.seed)
        os.sched_setaffinity(0, cpus)
        try:
            with clock.SpeedSampler(cpus) as sampler:

                def campaign(
                    jobs: int, chains: "list[Any]", names: "tuple[str, ...]", obs: Any = None
                ) -> "tuple[float, Any]":
                    engine = CampaignEngine(jobs=jobs, memo=False, obs=obs)
                    run = workloads.sampled(
                        sampler,
                        lambda: engine.solve_instances(chains, resources, names, jobs=jobs),
                    )
                    return run.wall_s, engine

                fixed_serial, _ = campaign(1, drawn[:2], ("otac_b",))
                fixed_jobs, _ = campaign(2, drawn[:2], ("otac_b",))
                serial, _ = campaign(1, drawn, PAPER_ORDER)
                parallel, engine = campaign(2, drawn, PAPER_ORDER, ObsConfig(metrics=True))
        finally:
            os.sched_setaffinity(0, cpus[:1])
        counters = dict(engine.obs.metrics.snapshot().counters)
        shipped = sum(
            value for name, value in counters.items()
            if name.startswith("worker.") and name.endswith(".pickle.bytes_out")
        )
        workers = len(cpus)
        return {
            "engine.jobs_fixed_s": fixed_jobs - fixed_serial,
            "engine.jobs_wall_s": parallel,
            "engine.jobs_speedup": serial / parallel,
            "engine.jobs_efficiency": serial / parallel / workers,
            "engine.parallel_overhead_s": parallel - serial / workers,
            "engine.ipc_bytes_out": shipped,
        }

    # -- experiments, obs ------------------------------------------------------

    def experiments(self) -> "dict[str, float]":
        from repro.experiments import table1

        # On the memo engine_serial filled: generate + replay + aggregate.
        result, warm_s = timed(
            lambda: table1.run(
                num_chains=self.chains, seed=self.seed, jobs=1, engine=self.warm_engine
            )
        )
        _, render_s = timed(lambda: table1.render(result))
        return {
            "experiments.aggregate_s": warm_s - self.generate_s - self.replay_s,
            "experiments.render_s": render_s,
        }

    def obs(self) -> "dict[str, float]":
        from repro.core.registry import PAPER_ORDER
        from repro.engine import CampaignEngine
        from repro.obs import ObsConfig

        resources, ratio = scenarios()[4]
        drawn = draw(self.chains, ratio, self.seed)

        def campaign(config: Any) -> float:
            engine = CampaignEngine(jobs=1, memo=False, obs=config)
            return timed(
                lambda: engine.solve_instances(drawn, resources, PAPER_ORDER, jobs=1)
            )[1]

        off = min(campaign(None), campaign(None))
        metrics = min(campaign(ObsConfig(metrics=True)) for _ in range(2))
        traced = min(campaign(ObsConfig(trace=True, metrics=True)) for _ in range(2))
        return {
            "obs.metrics_overhead_pct": (metrics - off) / off * 100.0,
            "obs.trace_overhead_pct": (traced - off) / off * 100.0,
        }

    # -- sim -------------------------------------------------------------------

    def sim(self) -> "dict[str, float]":
        from repro.core.chain_stats import ChainProfile
        from repro.core.registry import get_strategy
        from repro.core.types import Resources
        from repro.sim import SimConfig, bursty_trace, simulate

        events = self.sizes.probe_events
        trace, generate_s = timed(lambda: bursty_trace(events, (4, 4), seed=self.seed))
        cpu = workloads.usable_cpus(1)[0]
        with clock.SpeedSampler([cpu]) as sampler:
            run = workloads.sampled(sampler, lambda: simulate(trace, SimConfig()))
        result, factor = run.value, run.factor
        resched_s = sum(result.resched_seconds) * factor
        ladder = workloads.sim_counters(result)
        solver = get_strategy("2catac")
        arrivals = [
            ChainProfile(event.chain)
            for event in trace.events
            if event.kind == "chain_arrival"
        ][:50]
        cold = [timed(lambda: solver(p, Resources(4, 4)))[1] * 1e3 for p in arrivals]
        tried = ladder["warm"] + ladder["full"]
        values = {
            "sim.generate_s": generate_s,
            "sim.events": float(len(result.records)),
            "sim.resched_s": resched_s,
            "sim.loop_self_s": run.wall_s - resched_s,
            "sim.warm_ratio": ladder["warm"] / tried if tried else 0.0,
            "sim.cold_solve_ms": statistics.median(cold),
            "sim.resched_p99_ms": 1e3 * factor
            * statistics.quantiles(result.resched_seconds, n=100)[98],
        }
        values.update({f"sim.ladder.{rung}": float(ladder[rung]) for rung in workloads.LADDER})
        return values

    def run(self) -> "dict[str, float | None]":
        """Every group, in the order their totals are needed."""
        strategies = ("herad", "2catac", "fertac", "otac_b", "otac_l")
        kernels = workloads.SOLVE_STRATEGIES
        groups: "list[tuple[list[str], Callable[[], dict[str, float]]]]" = [
            (["cli.import_s", "cli.overhead_s"], self.cli),
            (["workloads.generate_s", "workloads.chains"], self.generate),
            (["core.profile_s", "core.fingerprint_s"], self.profile),
            (
                [f"core.solve_s.{s}" for s in strategies]
                + ["core.solve_calls", "core.solve_share"]
                + [f"core.kernels.batch_s.{s}" for s in kernels]
                + [f"core.kernels.batch_speedup.{s}" for s in kernels],
                self.solve,
            ),
            ([f"core.kernels.batch1_ms.{s}" for s in kernels], self.batch_of_one),
            (
                [
                    "core.count.solves", "core.count.binary_search_iterations",
                    "core.count.herad_dp_cells", "core.count.compute_stage_calls",
                ],
                self.counts,
            ),
            (
                ["engine.serial_self_s", "engine.replay_cells_per_s", "engine.memo_hit_ratio"],
                self.engine_serial,
            ),
            (["engine.plan_s", "engine.plan_units"], self.engine_plan),
            (
                [
                    "engine.jobs_fixed_s", "engine.jobs_wall_s", "engine.jobs_speedup",
                    "engine.jobs_efficiency", "engine.parallel_overhead_s",
                    "engine.ipc_bytes_out",
                ],
                self.engine_jobs,
            ),
            (["experiments.aggregate_s", "experiments.render_s"], self.experiments),
            (["obs.metrics_overhead_pct", "obs.trace_overhead_pct"], self.obs),
            (
                [
                    "sim.generate_s", "sim.events", "sim.resched_s", "sim.loop_self_s",
                    "sim.warm_ratio", "sim.cold_solve_ms", "sim.resched_p99_ms",
                ]
                + [f"sim.ladder.{rung}" for rung in workloads.LADDER],
                self.sim,
            ),
        ]
        values: "dict[str, float | None]" = {}
        for names, probe in groups:
            values.update(guarded(names, probe, self.reasons))
        return values


# -- the traced pass -------------------------------------------------------------


def campaign_pass(
    kind: str, seed: int, sizes: Sizes, solve_s: float
) -> "Callable[[spans.SpanRecorder], None]":
    """Table I re-enacted call by call: ``table1_cli``, ``_jobs`` or ``_replay``.

    The benchmark cannot see inside ``solve_instances``; on the serial cold
    path the ``core.solve`` probe total (same cells; ``solve_s`` raw seconds)
    stands for its child.
    """
    from repro.core.chain_stats import ChainProfile
    from repro.core.registry import PAPER_ORDER
    from repro.engine import CampaignEngine, MemoCache, PendingInstance, plan_units
    from repro.experiments import table1

    chains = sizes.probe_chains
    population = workloads.sub_seed(seed, 0)
    jobs = 2 if kind == "table1_jobs" else 1
    per_scenario = solve_s / len(scenarios())

    def one_pass(recorder: spans.SpanRecorder) -> None:
        os.sched_setaffinity(0, workloads.usable_cpus(jobs))  # pool workers inherit it
        memo = MemoCache()
        engine = CampaignEngine(jobs=jobs, memo=memo)
        if kind == "table1_replay":
            table1.run(num_chains=chains, seed=population, jobs=1, engine=engine)
        with recorder.span("experiments", "pass"):
            if kind != "table1_replay":
                with recorder.span("cli", "cli.import"):
                    subprocess.run(
                        [sys.executable, "-c", "import repro.cli"],
                        env=workloads.child_env(), check=True,
                    )
            for resources, ratio in scenarios():
                with recorder.span("workloads", "workloads.generate"):
                    drawn = draw(chains, ratio, population)
                with recorder.span("core", "core.profile"):
                    for chain in drawn:
                        ChainProfile(chain)
                with recorder.span("core", "core.fingerprint"):
                    for chain in drawn:
                        chain.fingerprint
                if jobs > 1:
                    pending = [
                        PendingInstance(index=i, chain=c, strategies=tuple(PAPER_ORDER))
                        for i, c in enumerate(drawn)
                    ]
                    with recorder.span("engine", "engine.plan"):
                        plan_units(pending, jobs=jobs)
                with recorder.span("engine", "engine.solve_instances"):
                    engine.solve_instances(drawn, resources, PAPER_ORDER, jobs=jobs)
                    if kind == "table1_cli":
                        recorder.add("core", "core.solve", per_scenario)
            with recorder.span("experiments", "experiments.aggregate"):
                result = table1.run(
                    num_chains=chains, seed=population, jobs=1, engine=engine
                )
            with recorder.span("experiments", "experiments.render"):
                table1.render(result)

    return one_pass


def solve_pass(strategy: str, seed: int, sizes: Sizes) -> "Callable[[spans.SpanRecorder], None]":
    from repro.core.chain_stats import ChainProfile
    from repro.core.registry import get_strategy, solve_batch

    solver = get_strategy(strategy)
    instances = workloads.solve_instances_for(seed, sizes.probe_chains * 6)

    def one_pass(recorder: spans.SpanRecorder) -> None:
        with recorder.span("core", "pass"):
            for chain, _, resources in instances:
                with recorder.span("core", "core.profile"):
                    profile = ChainProfile(chain)
                with recorder.span("core", f"core.solve.{strategy}"):
                    solver(profile, resources)
                with recorder.span("core.kernels", f"core.kernels.solve_batch.{strategy}"):
                    solve_batch([profile], resources, strategy)

    return one_pass


def sim_pass(seed: int, sizes: Sizes) -> "Callable[[spans.SpanRecorder], None]":
    from repro.sim import SimConfig, bursty_trace, simulate

    def one_pass(recorder: spans.SpanRecorder) -> None:
        with recorder.span("sim", "pass"):
            with recorder.span("sim", "sim.generate"):
                trace = bursty_trace(sizes.probe_events, (4, 4), seed=seed)
            with recorder.span("sim", "sim.simulate"):
                result = simulate(trace, SimConfig())
                recorder.add("sim", "sim.resched", sum(result.resched_seconds))

    return one_pass


def traced_run(
    workload: workloads.Workload, seed: int, sizes: Sizes, out: Path
) -> "tuple[dict[str, float | None], verify.Verdict, list[dict[str, Any]]]":
    """The per-layer metrics of one traced run, and the workload's layer table."""
    clock.pin_to(workloads.usable_cpus(1)[0])
    suite = Probes(seed, sizes)
    values = suite.run()

    name = workload.name
    # Spans are raw seconds; the pass's factor turns them into reference-speed
    # seconds, and the probes' totals back into raw ones.
    factor = clock.speed_factor(clock.ref_seconds(), clock.ref_seconds())
    if name.startswith("table1_"):
        one_pass = campaign_pass(name, seed, sizes, suite.solve_s / factor)
    elif name.startswith("solve_single."):
        one_pass = solve_pass(name.split(".", 1)[1], seed, sizes)
    else:
        one_pass = sim_pass(seed, sizes)
    recorder = spans.SpanRecorder()
    start = time.perf_counter()
    one_pass(recorder)
    pass_s = time.perf_counter() - start
    # The traced pass minus an untraced one would be +-3 % of noise around a
    # cost of ~0.01 %: count the spans and price one instead.
    values["perf.trace_overhead_pct"] = (
        len(recorder.spans) * span_cost_s() / pass_s * 100.0
    )
    recorder.write(out / f"trace.{name}.jsonl")

    table = recorder.self_seconds()
    total = sum(seconds for seconds, _ in table.values())
    layer_table = []
    for layer, (seconds, count) in table.items():
        values[f"self_s.{layer}"] = seconds * factor
        layer_table.append(
            {
                "layer": layer, "seconds": seconds * factor,
                "share": seconds / total, "count": count,
            }
        )
    values["machine.ref_ms"] = statistics.median(clock.ref_seconds() for _ in range(9)) * 1e3

    # The one output check a traced run can make: the CLI and the in-process
    # run printed the same table for the probe campaign.
    verdict = verify.Verdict(attempted=workloads.cells_per_table(sizes.probe_chains))
    if not suite.cli_matches:
        verdict.fail(verdict.attempted, "the CLI and the in-process run print different tables")
    for metric, reason in suite.reasons.items():
        print(f"perf: {metric} is null: {reason}", file=sys.stderr)
    verdict.digests["null_reasons"] = suite.reasons
    return values, verdict.close(), layer_table


def span_cost_s() -> float:
    """Raw seconds one recorded span costs (an empty one; best of three loops)."""
    count = 2000

    def loop(recorder: spans.SpanRecorder) -> float:
        start = time.perf_counter()
        for _ in range(count):
            with recorder.span("obs", "empty"):
                pass
        return time.perf_counter() - start

    return min(
        loop(spans.SpanRecorder()) - loop(spans.SpanRecorder(enabled=False))
        for _ in range(3)
    ) / count
