"""Tests for the end-of-run report (repro.obs.report) and the ambient context."""

from __future__ import annotations

from repro.obs import (
    NULL_CONTEXT,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
    ObsConfig,
    RunReport,
    Tracer,
    activate,
    counter_add,
    current,
)
from repro.obs.context import histogram_observe


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
        assert timed.startswith("  solve.seconds.herad: n=1 mean=2.000ms p50=")
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
        assert "no spans recorded" in rendered

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
                assert f"solve.seconds.{name}: n=" in rendered
            assert report.counter("solve.count") == len(chains) * len(PAPER_ORDER)


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
