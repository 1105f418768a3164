"""Tests for the end-of-run report (repro.obs.report) and the ambient context."""

from __future__ import annotations

import re

from repro.cli import main
from repro.engine import reset_default_engine
from repro.obs import (
    NULL_CONTEXT,
    Observability,
    ObsConfig,
    activate,
    counter_add,
    current,
)
from repro.obs.context import histogram_observe
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.report import RunReport
from repro.obs.tracer import Tracer


def _snapshot(**counters):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.add(name.replace("__", "."), value)
    return registry.snapshot()


class TestRunReport:
    def test_sinks_aggregate_and_sort_by_total(self):
        tracer = Tracer()
        with tracer.span("campaign", "campaign"):
            for _ in range(3):
                with tracer.span("solve", "solve"):
                    pass
        report = RunReport.from_parts(tracer.collect(), MetricsSnapshot(), 1.0)
        assert report.sinks[0].name == "campaign"  # outermost = largest inclusive
        solve = next(sink for sink in report.sinks if sink.name == "solve")
        assert solve.count == 3
        assert solve.mean_seconds * 3 == solve.total_seconds

    def test_memo_hit_rate(self):
        report = RunReport.from_parts(
            (), _snapshot(memo__hits=9.0, memo__misses=1.0), 1.0
        )
        assert report.memo_hits == 9.0
        assert report.memo_hit_rate == 0.9
        assert "memo: 9/10 hits (90.0%)" in report.render()

    def test_only_seconds_histograms_print_as_milliseconds(self):
        registry = MetricsRegistry()
        registry.observe("sim.resched.cost", 9.0)
        registry.observe("solve.seconds.herad", 0.002)
        lines = RunReport.from_parts((), registry.snapshot(), 1.0).render().splitlines()
        cost, timed = lines[lines.index("histograms:") + 1:]
        assert cost.startswith("  sim.resched.cost: n=1 mean=9.000 p50=")
        assert cost.endswith(" min=9.000 max=9.000") and "ms" not in cost
        assert timed.startswith(
            "  solve.seconds.herad (seconds per instance, one value per solve"
            " group): n=1 mean=2.000ms p50="
        )
        assert timed.endswith(" min=2.000ms max=2.000ms")

    def test_zero_lookups_is_not_a_division(self):
        report = RunReport.from_parts((), MetricsSnapshot(), 1.0)
        assert report.memo_hit_rate == 0.0

    def test_render_reports_failures(self):
        report = RunReport.from_parts(
            (),
            _snapshot(resilience__retries=5.0, resilience__quarantined=1.0),
            2.0,
        )
        rendered = report.render()
        assert rendered.startswith("== Run report ==")
        assert "failures: 1 quarantined, 5 retries, 0 degradations" in rendered

    def test_render_clean_run(self):
        report = RunReport.from_parts((), MetricsSnapshot(), 0.5)
        rendered = report.render()
        assert "failures: none" in rendered
        assert "spans" not in rendered and "time sinks" not in rendered

    def test_from_observability(self):
        obs = Observability(ObsConfig(trace=True, metrics=True))
        with obs.span("campaign", "campaign"):
            pass
        obs.metrics.add("memo.hits", 2.0)
        report = RunReport.from_observability(obs, 1.5)
        assert report.wall_seconds == 1.5
        assert report.memo_hits == 2.0
        assert report.sinks[0].name == "campaign"

    def test_campaign_report_lists_every_solved_strategy(self):
        from repro.core.registry import PAPER_ORDER
        from repro.core.types import Resources
        from repro.engine import CampaignEngine
        from repro.workloads.synthetic import GeneratorConfig, chain_batch

        chains = list(
            chain_batch(4, GeneratorConfig(num_tasks=8, stateless_ratio=0.5), seed=0)
        )
        for jobs in (1, 2):
            engine = CampaignEngine(
                jobs=jobs, memo=False, obs=ObsConfig(trace=True, metrics=True)
            )
            engine.solve_instances(chains, Resources(3, 3), PAPER_ORDER)
            report = RunReport.from_observability(engine.obs, 1.0)
            timed = dict(report.histograms)
            rendered = report.render()
            for name in PAPER_ORDER:
                assert timed[f"solve.seconds.{name}"].count >= 1
                assert f"solve.seconds.{name} (seconds per instance" in rendered
            assert report.counter("solve.count") == len(chains) * len(PAPER_ORDER)


#: ``table1 --chains 3 --seed 0 --jobs 1 --metrics``'s run report with every
#: duration masked: the lines that do not depend on timing, verbatim.
_GOLDEN_TABLE1_REPORT = """\
== Run report ==
wall-clock: <t>
memo: 0/135 hits (0.0%)
failures: none
counters:
  binary_search.calls = 108
  binary_search.iterations = 773
  herad.calls = 27
  herad.dp_cells = 54999
  packing.compute_stage_calls = 23392
  solve.count = 135
histograms:
  solve.period.2catac: n=27 mean=114.927 p50=98.505 p90=190.590 p99=202.000 min=72.000 max=202.000
  solve.period.fertac: n=27 mean=115.971 p50=98.505 p90=190.590 p99=202.000 min=72.000 max=202.000
  solve.period.herad: n=27 mean=114.340 p50=96.554 p90=190.590 p99=202.000 min=72.000 max=202.000
  solve.period.otac_b: n=27 mean=169.926 p50=138.395 p90=290.075 p99=319.000 min=72.000 max=319.000
  solve.period.otac_l: n=27 mean=558.519 p50=459.507 p90=1002.428 p99=1192.000 min=262.000 max=1192.000
  solve.seconds.2catac (seconds per instance, one value per solve group): n=9 mean=<t> p50=<t> p90=<t> p99=<t> min=<t> max=<t>
  solve.seconds.fertac (seconds per instance, one value per solve group): n=9 mean=<t> p50=<t> p90=<t> p99=<t> min=<t> max=<t>
  solve.seconds.herad (seconds per instance, one value per solve group): n=9 mean=<t> p50=<t> p90=<t> p99=<t> min=<t> max=<t>
  solve.seconds.otac_b (seconds per instance, one value per solve group): n=9 mean=<t> p50=<t> p90=<t> p99=<t> min=<t> max=<t>
  solve.seconds.otac_l (seconds per instance, one value per solve group): n=9 mean=<t> p50=<t> p90=<t> p99=<t> min=<t> max=<t>
"""

_DURATION = re.compile(r"\d+\.\d+m?s\b")


def _run_report(argv, capsys):
    reset_default_engine()  # a cold memo: every cell is solved
    assert main(argv) == 0
    reset_default_engine()
    out = capsys.readouterr().out
    return _DURATION.sub("<t>", out[out.index("== Run report ==") :])


class TestGoldenReport:
    ARGV = ["table1", "--chains", "3", "--seed", "0", "--jobs", "1", "--metrics"]

    def test_table1_metrics_report(self, capsys):
        """No spans line without ``--trace``; each ``solve.seconds`` histogram
        says its values are per-instance costs of solve groups."""
        assert _run_report(self.ARGV, capsys) == _GOLDEN_TABLE1_REPORT

    def test_trace_adds_the_time_sinks(self, capsys, tmp_path):
        traced = _run_report(
            [*self.ARGV, "--trace", str(tmp_path / "trace.json")], capsys
        ).splitlines()
        assert traced[:2] == _GOLDEN_TABLE1_REPORT.splitlines()[:2]
        assert traced[2].startswith("top time sinks (inclusive/self, top ")
        assert traced[3].split()[2] == "experiment"  # the outermost span


class TestAmbientContext:
    def test_default_is_null(self):
        assert current() is NULL_CONTEXT
        counter_add("ignored")  # must not raise, must not record anywhere

    def test_activate_scopes_the_context(self):
        obs = Observability(ObsConfig(metrics=True))
        with activate(obs.context()):
            assert current() is obs.context()
            counter_add("binary_search.calls")
            histogram_observe("latency", 0.25)
        assert current() is NULL_CONTEXT
        assert obs.metrics.counter("binary_search.calls") == 1.0

    def test_activation_restores_prior_context_on_error(self):
        obs = Observability(ObsConfig(metrics=True))
        try:
            with activate(obs.context()):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current() is NULL_CONTEXT

    def test_disabled_observability_activates_null(self):
        obs = Observability()
        assert obs.enabled is False
        assert obs.context() is NULL_CONTEXT
        assert obs.worker_config() is None

    def test_worker_payload_round_trip(self):
        config = ObsConfig(trace=True, metrics=True)
        context = config.create_context()
        with activate(context):
            with context.span("unit", "engine"):
                counter_add("solve.count")
        payload = context.payload()
        assert not payload.empty
        home = Observability(config)
        home.absorb(payload)
        assert home.metrics.counter("solve.count") == 1.0
        assert [span.name for span in home.spans()] == ["unit"]
