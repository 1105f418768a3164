"""Command-line interface: regenerate any paper table or figure.

Usage (after ``pip install -e .``)::

    repro table1 --chains 200
    repro fig2
    repro table2 --frames 5000
    repro all --chains 100 --out results/
    repro table1 --resume run.jsonl # checkpoint to (and resume from) a journal
    repro table1 --retries 5 --timeout 60   # harden a long campaign
    repro table1 --trace out.json   # Chrome-trace the run (chrome://tracing)
    repro table1 --metrics          # print the end-of-run RunReport
    repro table1 --flamegraph out.folded   # collapsed-stack flamegraph
    repro bench compare --baseline OLD/ledger.json --candidate perf/out/ledger.json
    repro lint                      # project-specific static analysis
    repro solve --cores big=6,little=8           # paper-style two-type solve
    repro solve --cores big=6,little=8,lpe=2     # k-type platform
    repro simulate --kind storm --certify        # online failure-storm sim
    repro simulate --kind bursty --events 1000 --deadline 16 --journal sim.jsonl

or equivalently ``python -m repro <command> [options]``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from importlib import import_module
from pathlib import Path

# Only what every invocation needs is imported here; each subcommand
# imports its own subsystem — experiments, lint, sim, bench — and each
# output flag its writer (``--trace``, ``--flamegraph``, ``--metrics``) in
# the handler that runs it, so ``repro table1`` never pays for the
# streaming runtime, the linter or an exporter it was not asked for.
from .core.certify import certify_outcome
from .core.chain_stats import ChainProfile
from .core.errors import InvalidParameterError, SchedulingError
from .core.registry import get_info, solve_batch
from .core.types import Resources, type_name
from .engine import CampaignEngine, CheckpointJournal, ResilienceConfig, default_engine
from .obs import Observability, ObsConfig, monotonic

__all__ = ["main", "build_parser"]

_log = logging.getLogger("repro.cli")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
}


def _configure_logging(level_name: str) -> None:
    """Configure the single ``repro`` logger hierarchy (idempotent).

    Every diagnostic path in the package logs through a ``repro.*`` logger;
    the hierarchy gets one stderr handler here, so ``--log-level`` is the
    only knob and stdout stays reserved for experiment reports.
    """
    root = logging.getLogger("repro")
    root.setLevel(_LOG_LEVELS[level_name])
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[%(levelname)s %(name)s] %(message)s")
        )
        root.addHandler(handler)
        root.propagate = False

_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablation",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _journal_path(text: str) -> Path:
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} is a directory, not a journal file")
    return path


def _out_dir(text: str) -> Path:
    path = Path(text)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} exists and is not a directory")
    return path


def _parse_cores(text: str) -> "tuple[Resources, tuple[str, ...]]":
    """Parse ``--cores big=8,little=8,mid=4`` into a budget + class labels.

    Classes are listed most performant first (the core layer's type-index
    convention).  Each item is ``label=count`` or a bare count (labelled
    ``big``/``little``/``type2``... by position).
    """
    counts: list[int] = []
    labels: list[str] = []
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("--cores needs at least one class")
    for position, item in enumerate(items):
        if "=" in item:
            label, _, value = item.partition("=")
            label = label.strip()
            value = value.strip()
            if not label:
                raise argparse.ArgumentTypeError(
                    f"--cores item {item!r}: empty class label"
                )
        else:
            label, value = type_name(position), item
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--cores item {item!r}: count must be an integer"
            ) from None
        if count < 0:
            raise argparse.ArgumentTypeError(
                f"--cores item {item!r}: count must be >= 0"
            )
        labels.append(label)
        counts.append(count)
    if sum(counts) < 1:
        raise argparse.ArgumentTypeError("--cores: platform has no cores")
    return Resources.from_counts(counts), tuple(labels)


def _experiment_options() -> argparse.ArgumentParser:
    """Parent parser holding the options shared by every experiment."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--chains",
        type=_positive_int,
        default=200,
        help=(
            "chains per synthetic scenario (paper: 1000; default 200 keeps "
            "a laptop run in minutes)"
        ),
    )
    parent.add_argument(
        "--timing-chains",
        type=_positive_int,
        default=20,
        help="chains averaged per execution-time point (paper: 50)",
    )
    parent.add_argument(
        "--frames",
        type=_positive_int,
        default=2000,
        help="frames streamed per throughput measurement (table2/fig5)",
    )
    parent.add_argument(
        "--seed", type=int, default=0, help="base random seed for campaigns"
    )
    parent.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help=(
            "worker processes for the campaign engine (default: all cores, "
            "i.e. os.cpu_count()); results are identical for any value"
        ),
    )
    parent.add_argument(
        "--resume",
        type=_journal_path,
        default=None,
        metavar="JOURNAL",
        help=(
            "checkpoint journal (JSONL): every solved instance is appended "
            "and fsync'd per chunk; if the file already holds rows (e.g. "
            "from a killed run), each is audited by the certificate checker "
            "and replayed through the memo cache, and only the remainder is "
            "solved — results are bitwise identical to an uninterrupted run"
        ),
    )
    parent.add_argument(
        "--retries",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "enable resilient execution with N attempts per work unit, then "
            "N per cell: transient failures (crashed workers, pickling "
            "errors, timeouts) retry with deterministic backoff; units no "
            "attempt finished are re-solved cell by cell in-process, and "
            "cells that still fail are quarantined (reported on stderr) "
            "instead of aborting"
        ),
    )
    parent.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "soft deadline per work unit on the process tier; a hung solve is "
            "abandoned and retried instead of stalling the campaign "
            "(implies resilient execution)"
        ),
    )
    parent.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "record a span trace of the run and write it as Chrome "
            "trace-event JSON (open in chrome://tracing or ui.perfetto.dev); "
            "results are bitwise identical with tracing on or off"
        ),
    )
    parent.add_argument(
        "--flamegraph",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the run's span forest as collapsed stacks "
            "('root;child;leaf microseconds' per line, self time only) — "
            "feed to flamegraph.pl or paste into speedscope.app; composes "
            "with --trace (same spans, two views)"
        ),
    )
    parent.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "collect engine metrics (memo hit rate, retries, per-strategy "
            "solve latency, ...) and print an end-of-run report"
        ),
    )
    parent.add_argument(
        "--log-level",
        choices=sorted(_LOG_LEVELS),
        default="info",
        help="verbosity of the 'repro' logger hierarchy on stderr (default: info)",
    )
    parent.add_argument(
        "--out",
        type=_out_dir,
        default=None,
        help="directory to also write each report as <experiment>.txt",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (one subcommand per experiment + lint)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Scheduling Strategies for "
            "Partially-Replicable Task Chains on Two Types of Resources'."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="command",
        help="experiment to regenerate ('all' runs everything), or 'lint'",
    )
    options = _experiment_options()
    for name in (*_EXPERIMENTS, "all"):
        subparsers.add_parser(
            name,
            parents=[options],
            help=f"regenerate {name}" if name != "all" else "run every experiment",
        )
    solve_parser = subparsers.add_parser(
        "solve",
        help="schedule synthetic chains on an arbitrary k-type platform",
        description=(
            "Schedule a batch of synthetic task chains on a platform "
            "described by --cores (classes listed most performant first). "
            "Two-type budgets reproduce the paper's setting exactly; more "
            "classes exercise the k-type generalization.  Every schedule is "
            "audited by the independent certificate checker before it is "
            "printed; a failed audit exits 2."
        ),
    )
    solve_parser.add_argument(
        "--cores",
        type=_parse_cores,
        required=True,
        metavar="SPEC",
        help=(
            "per-class core counts, most performant first: "
            "'big=8,little=8,mid=4' or bare counts '8,8,4'"
        ),
    )
    solve_parser.add_argument(
        "--strategy",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "strategy (registry name or alias; repeatable; default: "
            "ktype_ref, the exhaustive k-type reference solver); "
            "two-type-only strategies such as herad are rejected on "
            "platforms with more than two classes"
        ),
    )
    solve_parser.add_argument(
        "--chains", type=_positive_int, default=5, help="chains to schedule"
    )
    solve_parser.add_argument(
        "--num-tasks", type=_positive_int, default=12, help="tasks per chain"
    )
    solve_parser.add_argument(
        "--sr",
        type=float,
        default=0.5,
        help="stateless ratio of the generated chains",
    )
    solve_parser.add_argument(
        "--seed", type=int, default=0, help="base random seed"
    )
    solve_parser.add_argument(
        "--log-level",
        choices=sorted(_LOG_LEVELS),
        default="info",
        help="verbosity of the 'repro' logger hierarchy on stderr",
    )
    sim_parser = subparsers.add_parser(
        "simulate",
        help="online fault-tolerant simulation (chains and cores come and go)",
        description=(
            "Run the discrete-event simulator (repro.sim): chains arrive, "
            "depart and mutate while cores fail and recover; after every "
            "event the incremental scheduler re-establishes a feasible "
            "schedule for each surviving chain within the rescheduling "
            "deadline, degrading warm -> full -> reuse -> shed but never "
            "leaving a chain scheduleless.  Exits non-zero if any "
            "invariant (scheduleless interval / overcommit) is violated."
        ),
    )
    sim_parser.add_argument(
        "--kind",
        choices=("storm", "bursty", "diurnal"),
        default="storm",
        help=(
            "generated workload: 'storm' is the failure-storm acceptance "
            "scenario (>= 3 overlapping core failures), 'bursty' flash "
            "crowds, 'diurnal' a day/night arrival sinusoid"
        ),
    )
    sim_parser.add_argument(
        "--input",
        type=Path,
        default=None,
        metavar="TRACE",
        help="simulate a trace file written by --save-trace instead of generating one",
    )
    sim_parser.add_argument(
        "--events",
        type=_positive_int,
        default=200,
        help="events in a bursty/diurnal trace (the storm skeleton is fixed)",
    )
    sim_parser.add_argument(
        "--chains",
        type=_positive_int,
        default=8,
        help="arrivals in the storm skeleton (storm only)",
    )
    sim_parser.add_argument(
        "--cores",
        type=_parse_cores,
        default=None,
        metavar="SPEC",
        help=(
            "initial per-class core counts, e.g. 'big=3,little=3' "
            "(default: 3,3 for storm, 4,4 otherwise)"
        ),
    )
    sim_parser.add_argument(
        "--seed", type=int, default=0, help="trace generator seed"
    )
    sim_parser.add_argument(
        "--strategy",
        default="2catac",
        metavar="NAME",
        help="cold-solve strategy (registry name; default: 2catac)",
    )
    sim_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="COST",
        help=(
            "rescheduling budget per event in modeled cost units (a warm "
            "start costs 1, a cold solve costs the chain's task count; "
            "default: unbounded)"
        ),
    )
    sim_parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "audit every warm-started and cold solution with the "
            "independent certificate checker"
        ),
    )
    sim_parser.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "append-only decision journal; an existing journal replays its "
            "prefix without re-solving (interrupt + resume, bitwise "
            "identical to an uninterrupted run)"
        ),
    )
    sim_parser.add_argument(
        "--stop-after",
        type=_positive_int,
        default=None,
        metavar="N",
        help="process at most N events (interrupt on purpose; use with --journal)",
    )
    sim_parser.add_argument(
        "--save-trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the generated trace (JSONL) for later --input runs",
    )
    sim_parser.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace-event JSON of the run: one lane per "
            "concrete core (down intervals) plus a scheduler event lane"
        ),
    )
    sim_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the sim.* counters (events, ladder actions, invariants)",
    )
    sim_parser.add_argument(
        "--log-level",
        choices=sorted(_LOG_LEVELS),
        default="info",
        help="verbosity of the 'repro' logger hierarchy on stderr",
    )
    bench_parser = subparsers.add_parser(
        "bench",
        help="performance utilities (the perf gate over two ledgers)",
        description=(
            "Benchmark utilities.  'compare' judges two ledgers written by "
            "'python perf/run.py' by the bounds BENCHMARK.json declares and "
            "exits non-zero on regression — the CI perf gate."
        ),
    )
    bench_sub = bench_parser.add_subparsers(
        dest="bench_command", required=True, metavar="action"
    )
    compare_parser = bench_sub.add_parser(
        "compare",
        help="judge a candidate ledger against a baseline ledger",
        description=(
            "For every workload x end-to-end metric the contract names, fail "
            "the row when the candidate is worse than the baseline by more "
            "than the metric's bound; fail a workload whose failed-op share "
            "rose or that the candidate lacks.  Exit 0 when every row "
            "passes, 1 on regression, 2 on malformed inputs or ledgers not "
            "taken the same way (--quick, usable cores)."
        ),
    )
    compare_parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        metavar="LEDGER",
        help="perf/out/ledger.json of the commit to compare against",
    )
    compare_parser.add_argument(
        "--candidate",
        type=Path,
        required=True,
        metavar="LEDGER",
        help="perf/out/ledger.json of the commit being judged",
    )
    compare_parser.add_argument(
        "--contract",
        type=Path,
        default=Path("BENCHMARK.json"),
        metavar="PATH",
        help=(
            "the benchmark contract naming workloads, metrics and bounds "
            "(default: BENCHMARK.json)"
        ),
    )
    # Listed for ``repro --help`` only: ``main`` hands ``repro lint ...`` to
    # the linter's own parser, so no other command imports ``repro.lint``.
    subparsers.add_parser(
        "lint",
        help="run the project-specific static analysis (see 'repro lint --help')",
    )
    return parser


def _build_engine(
    args: argparse.Namespace, obs: "Observability | None" = None
) -> "CampaignEngine | None":
    """A dedicated engine when a hardening or observability flag is set.

    ``None`` means "use the process-wide default engine" (the lean fail-fast
    path).  The dedicated engine shares the default engine's memo cache, so
    ``repro all`` still replays repeated campaigns for free.
    """
    hardened = (
        args.resume is not None
        or args.retries is not None
        or args.timeout is not None
    )
    if not hardened and obs is None:
        return None
    resilience: "ResilienceConfig | None" = None
    journal: "CheckpointJournal | None" = None
    if hardened:
        resilience = ResilienceConfig(
            attempts=args.retries or 3, timeout=args.timeout
        )
        if args.resume is not None:
            journal = CheckpointJournal(args.resume)
    return CampaignEngine(
        jobs=args.jobs,
        memo=default_engine().memo,
        resilience=resilience,
        journal=journal,
        obs=obs,
    )


def _report_failures(engine: "CampaignEngine | None", name: str) -> None:
    """Surface quarantined instances on the repro logger (the campaign ran)."""
    if engine is None or not engine.failures:
        return
    _log.warning(
        "%s: %d instance(s) quarantined after exhausting retries",
        name,
        len(engine.failures),
    )
    for record in engine.failures:
        _log.warning(
            "  chain#%d %s: %s(%s) after %d attempts",
            record.index,
            record.strategy,
            record.error_type,
            record.message,
            record.attempts,
        )
    engine.clear_failures()


def _run_one(
    name: str, args: argparse.Namespace, engine: "CampaignEngine | None" = None
) -> str:
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    module = import_module(f".experiments.{name}", __package__)
    campaign = dict(seed=args.seed, jobs=args.jobs, engine=engine)
    if name in ("table1", "fig1", "fig2"):
        result = module.run(num_chains=args.chains, **campaign)
    elif name == "fig6":
        result = module.run(num_chains=min(args.chains, 200), **campaign)
    elif name in ("table2", "fig5"):
        result = module.run(num_frames=args.frames)
    elif name in ("fig3", "fig4"):
        result = module.run(num_chains=args.timing_chains, seed=args.seed)
    elif name == "ablation":
        result = module.run(num_chains=min(args.chains, 100), seed=args.seed)
    else:
        result = module.run()  # table3: the fixed DVB-S2 chain
    report: str = module.render(result)
    return report


def run_solve(args: argparse.Namespace) -> int:
    """``repro solve``: schedule synthetic chains on a --cores platform."""
    from .workloads.synthetic import GeneratorConfig, ktype_chain_batch

    resources, labels = args.cores
    names = args.strategy or ["ktype_ref"]
    try:
        infos = [(name, get_info(name)) for name in names]
    except SchedulingError as error:
        _log.error("%s", error)
        return 2
    config = GeneratorConfig(num_tasks=args.num_tasks, stateless_ratio=args.sr)
    chains = list(
        ktype_chain_batch(
            args.chains, config, ktype=max(2, resources.ktype), seed=args.seed
        )
    )
    budget = ", ".join(
        f"{label}={count}" for label, count in zip(labels, resources.counts)
    )
    print(f"platform: {budget}  (k={resources.ktype})")
    profiles = [ChainProfile(chain) for chain in chains]
    # One solve_batch call per strategy over the whole batch (HeRAD's
    # kernel, 2CATAC's memoised walk, the scalar solver mapped otherwise).
    try:
        solved = {
            name: solve_batch(profiles, resources, name) for name, _ in infos
        }
    except SchedulingError as error:
        _log.error("%s", error)
        return 2
    for row, chain in enumerate(chains):
        profile = profiles[row]
        for name, info in infos:
            outcome = solved[name][row]
            try:
                certify_outcome(
                    outcome, profile, resources, optimal=info.optimal, context=name
                )
            except SchedulingError as error:
                _log.error("%s on %s: %s", name, chain.name, error)
                return 2
            usage = outcome.solution.core_usage(resources.ktype)
            print(
                f"{chain.name}  {info.name:<12} period={outcome.period:.6g}  "
                f"usage={usage}"
            )
    return 0


def run_bench(args: argparse.Namespace) -> int:
    """``repro bench compare``: two ledgers judged by the benchmark contract."""
    from .bench.gate import compare, load_object, render_rows

    try:
        rows = compare(
            load_object(args.baseline),
            load_object(args.candidate),
            load_object(args.contract),
        )
    except InvalidParameterError as error:
        print(f"bench compare: {error}", file=sys.stderr)
        return 2
    print(render_rows(rows))
    return 0 if all(row.passed for row in rows) else 1


def run_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: online fault-tolerant discrete-event simulation."""
    from .sim import (
        SimConfig,
        SimTrace,
        bursty_trace,
        diurnal_trace,
        failure_storm_trace,
        simulate,
        write_sim_trace,
    )

    try:
        if args.input is not None:
            trace = SimTrace.read(args.input)
        else:
            counts = (
                args.cores[0].counts
                if args.cores is not None
                else ((3, 3) if args.kind == "storm" else (4, 4))
            )
            if args.kind == "storm":
                trace = failure_storm_trace(counts, seed=args.seed, chains=args.chains)
            elif args.kind == "bursty":
                trace = bursty_trace(args.events, counts, seed=args.seed)
            else:
                trace = diurnal_trace(args.events, counts, seed=args.seed)
        if args.save_trace is not None:
            _log.info("trace written to %s", trace.write(args.save_trace))
        config = SimConfig(
            strategy=args.strategy, deadline=args.deadline, certify=args.certify
        )
        result = simulate(
            trace, config, journal=args.journal, stop_after=args.stop_after
        )
    except SchedulingError as error:
        _log.error("%s", error)
        return 2
    print(
        f"trace: {result.name}  events: {result.num_events}/{trace.num_events}"
        f"  platform: {','.join(str(c) for c in trace.initial_counts)}"
    )
    actions = "  ".join(
        f"{action}={int(result.counter(f'sim.resched.{action}'))}"
        for action in ("keep", "warm", "full", "reuse", "shed")
    )
    print(f"ladder:  {actions}")
    scheduled = sum(1 for _, period in result.final_periods if period is not None)
    print(
        f"final:   {scheduled}/{len(result.final_periods)} chains scheduled, "
        f"aggregate throughput {result.aggregate_throughput():.6g}"
    )
    if result.resched_seconds:
        # Percentiles come from the obs quantile sketch, not ad-hoc sorting,
        # so this line agrees with RunReport.
        sketch = result.resched_sketch()
        print(
            "resched: "
            f"p50={sketch.p50 * 1e3:.2f}ms  "
            f"p90={sketch.p90 * 1e3:.2f}ms  "
            f"p99={sketch.p99 * 1e3:.2f}ms  "
            f"max={sketch.maximum * 1e3:.2f}ms"
        )
    print(
        f"invariants: scheduleless={result.scheduleless_intervals}  "
        f"overcommit={result.overcommit_events}"
    )
    if args.chrome is not None:
        _log.info("chrome trace written to %s", write_sim_trace(args.chrome, result))
    if args.metrics:
        for name, value in sorted(result.metrics.counters):
            if name.startswith("sim."):
                print(f"  {name} = {value:g}")
    if result.scheduleless_intervals or result.overcommit_events:
        _log.error("simulation violated a scheduling invariant")
        return 1
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "bench":
        return run_bench(args)
    if args.experiment == "solve":
        _configure_logging(args.log_level)
        return run_solve(args)
    if args.experiment == "simulate":
        _configure_logging(args.log_level)
        return run_simulate(args)
    _configure_logging(args.log_level)
    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    obs_config = ObsConfig(
        trace=args.trace is not None or args.flamegraph is not None,
        metrics=args.metrics,
    )
    obs = Observability(obs_config) if obs_config.enabled else None
    engine = _build_engine(args, obs)
    sweep_start = monotonic()
    try:
        for name in names:
            start = monotonic()
            if obs is not None:
                with obs.span("experiment", "experiment", experiment=name):
                    report = _run_one(name, args, engine=engine)
            else:
                report = _run_one(name, args, engine=engine)
            elapsed = monotonic() - start
            print(report)
            _log.info("%s completed in %.1fs", name, elapsed)
            _report_failures(engine, name)
            print()
            if args.out is not None:
                (args.out / f"{name}.txt").write_text(report + "\n")
    except SchedulingError as error:
        # A failed certificate audit (of a solve or of a journaled row) or
        # an unusable journal: named on stderr, no traceback.
        _log.error("%s", error)
        return 2
    finally:
        # A Ctrl-C lands here too: committed journal chunks survive for
        # --resume even when the sweep is aborted mid-experiment, and a
        # partial trace is still a viewable trace.
        if engine is not None and engine.journal is not None:
            engine.journal.close()
        (engine if engine is not None else default_engine()).close()
        if obs is not None and args.trace is not None:
            from .obs.export import write_chrome_trace

            path = write_chrome_trace(
                args.trace, obs.spans(), obs.metrics.snapshot()
            )
            _log.info("trace written to %s", path)
        if obs is not None and args.flamegraph is not None:
            from .obs.profile import write_flamegraph

            lines = write_flamegraph(args.flamegraph, obs.spans())
            _log.info(
                "flamegraph written to %s (%d stacks)", args.flamegraph, lines
            )
    if obs is not None and args.metrics:
        from .obs.report import RunReport

        wall = monotonic() - sweep_start
        print(RunReport.from_observability(obs, wall).render())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
