"""Tests for the CLI (repro.cli)."""

from __future__ import annotations

import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_all_experiments():
    parser = build_parser()
    for name in (
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "all",
    ):
        args = parser.parse_args([name])
        assert args.experiment == name


def test_import_is_lazy_about_subcommand_subsystems():
    """``import repro.cli`` loads no subsystem only one subcommand needs;
    the subcommands themselves still work (lint / bench compare below,
    simulate here)."""
    import subprocess
    import sys

    loaded = (
        "print([m for m in ('repro.lint', 'repro.sim', 'repro.streampu', "
        "'repro.sdr', 'repro.bench') if m in sys.modules])"
    )
    for probe in (
        "import sys, repro.cli\n",
        # Building the parser and running a campaign load none of them either.
        "import sys, repro.cli\n"
        "repro.cli.main(['table1', '--chains', '1', '--jobs', '1'])\n",
    ):
        done = subprocess.run(
            [sys.executable, "-c", probe + loaded],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"


def test_simulate_subcommand_runs(capsys):
    assert main(["simulate", "--kind", "storm", "--chains", "4"]) == 0
    out = capsys.readouterr().out
    assert "ladder:" in out and "invariants: scheduleless=0  overcommit=0" in out
    # Certified, with the ladder counters listed (exit 1 on a violation).
    assert main(["simulate", "--kind", "storm", "--chains", "8", "--certify", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "invariants: scheduleless=0  overcommit=0" in out and "  sim.resched.shed = " in out


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["table9"])


def test_table3_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "tau_19" in out


def test_fig2_small_campaign(capsys):
    assert main(["fig2", "--chains", "8"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out


def test_out_directory_written(tmp_path, capsys):
    assert main(["table3", "--out", str(tmp_path)]) == 0
    report = tmp_path / "table3.txt"
    assert report.exists()
    assert "Table III" in report.read_text()


def test_seed_flag_changes_campaign(capsys):
    main(["fig2", "--chains", "6", "--seed", "1"])
    first = capsys.readouterr().out
    main(["fig2", "--chains", "6", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--certify"],
        ["all", "--certify"],
        ["solve", "--cores", "4,4", "--certify"],
    ],
    ids=["table1-certify", "all-certify", "solve-certify"],
)
def test_retired_flags_exit_two(argv, capsys):
    """Every campaign and ``repro solve`` result is audited: there is no
    flag to ask for it."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_certify_flag_defaults_off():
    """The one ``--certify`` left is the simulator's opt-in audit."""
    parser = build_parser()
    assert parser.parse_args(["simulate"]).certify is False
    assert parser.parse_args(["simulate", "--certify"]).certify is True
    assert not hasattr(parser.parse_args(["table1"]), "certify")


def test_certified_run_matches_plain(capsys, monkeypatch):
    """The audit every run makes changes no byte of the report."""
    from repro.engine import batch, reset_default_engine

    reset_default_engine()
    assert main(["fig2", "--chains", "6"]) == 0
    audited = capsys.readouterr().out
    reset_default_engine()

    def unaudited(outcome, profile, resources, **kwargs):
        usage = outcome.solution.core_usage(resources.ktype).counts
        return SimpleNamespace(usage=usage)

    monkeypatch.setattr(batch, "certify_outcome", unaudited)
    assert main(["fig2", "--chains", "6"]) == 0
    assert capsys.readouterr().out == audited
    reset_default_engine()


def test_lint_subcommand_reports_clean_tree(capsys):
    from pathlib import Path

    import repro

    package_root = Path(repro.__file__).parent
    assert main(["lint", str(package_root)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_resilience_flags_default_off():
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.resume is None
    assert args.retries is None
    assert args.timeout is None


def test_resilience_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        [
            "table1",
            "--resume", "run.jsonl",
            "--retries", "5",
            "--timeout", "30",
        ]
    )
    assert str(args.resume) == "run.jsonl"
    assert args.retries == 5
    assert args.timeout == 30.0


def test_retries_rejects_nonpositive():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--retries", "0"])


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--chains", "0"],
        ["table1", "--chains", "-3"],
        ["fig3", "--timing-chains", "0"],
        ["table2", "--frames", "-1"],
        ["table1", "--timeout", "0"],
        ["table1", "--timeout", "-1"],
    ],
)
def test_nonpositive_sizes_and_deadlines_are_usage_errors(argv, capsys):
    """Exit 2 with argparse's one-line message, not a traceback from numpy,
    ``chain_batch`` or ``ResilienceConfig`` deep inside the run."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error.startswith("repro") and argv[1] in error


@pytest.mark.parametrize(
    "argv,content",
    [
        (["simulate", "--input", "PATH"], None),  # no such file
        (["simulate", "--input", "PATH"], "time,kind\n0.0,arrival\n"),
        (["simulate", "--input", "PATH"], '{"initial_counts": [3, 3]}\n'),
        (["simulate", "--input", "PATH"], '{"format": "repro-sim-trace/1"}\n'),
        (["simulate", "--input", "PATH"], '{"format": "repro-sim-trace/1", "initial_counts": [3]}\n[1, 2]\n'),
        (["simulate", "--input", "PATH"], '{"format": "repro-sim-trace/1", "initial_counts": [3]}\n{"ki\n[]\n'),
        (["simulate", "--journal", "PATH"], "[1, 2, 3]\n"),
        (["simulate", "--journal", "PATH"], '{"seq": 0}\n'),
        (["table1", "--chains", "1", "--resume", "DIR"], None),
        (["table3", "--out", "PATH"], "a file where a directory should go\n"),
    ],
    ids=["missing", "not-json", "untagged", "no-counts", "event-list", "torn-mid-file",
         "journal-list", "journal-no-time", "resume-dir", "out-file"],
)
def test_unusable_path_arguments_exit_two_without_traceback(argv, content, tmp_path):
    """A fresh interpreter, as a user runs it: the in-process ``repro`` logger
    keeps the stderr of whichever test configured it first."""
    import subprocess
    import sys

    path = tmp_path / "argument"
    if content is not None:
        path.write_text(content)
    argv = [{"PATH": str(path), "DIR": str(tmp_path)}.get(word, word) for word in argv]
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert argv[-1] in done.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda decision: decision.update(period=1e-9),
        lambda decision: decision["triplets"][0].__setitem__(2, 999),
    ],
    ids=["period", "cores"],
)
def test_tampered_sim_journal_exits_two(tamper, tmp_path):
    """A resumed ``simulate`` audits every journaled schedule: a period or a
    core count edited into the journal is refused, naming the line, before
    anything is printed."""
    import json
    import subprocess
    import sys

    path = tmp_path / "run.jsonl"
    storm = ["simulate", "--kind", "storm", "--journal", str(path)]
    assert main([*storm, "--stop-after", "6"]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    tamper(rows[2]["decisions"][0])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    done = subprocess.run(
        [sys.executable, "-m", "repro", *storm], capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert f"{path}, line 3: " in done.stderr


def test_simulate_input_tolerates_a_torn_final_line(capsys, tmp_path):
    from repro.sim import failure_storm_trace

    path = failure_storm_trace(seed=5, chains=4).write(tmp_path / "trace.jsonl")
    text = path.read_text()
    path.write_text(text[: len(text) - 20])
    assert main(["simulate", "--input", str(path)]) == 0
    assert "invariants: scheduleless=0  overcommit=0" in capsys.readouterr().out


def test_hardened_run_matches_plain(capsys, tmp_path):
    """--retries/--timeout/--resume must not change fault-free output."""
    from repro.engine import reset_default_engine

    assert main(["fig2", "--chains", "6"]) == 0
    plain = capsys.readouterr().out
    journal = tmp_path / "run.jsonl"
    # Drop the shared memo so the hardened run actually solves (and journals).
    reset_default_engine()
    assert (
        main(
            [
                "fig2", "--chains", "6",
                "--retries", "3",
                "--timeout", "120",
                "--resume", str(journal),
            ]
        )
        == 0
    )
    hardened = capsys.readouterr().out
    assert plain == hardened
    assert journal.exists() and journal.stat().st_size > 0

    # Second run resumes from the journal and prints the same report.
    assert main(["fig2", "--chains", "6", "--resume", str(journal)]) == 0
    resumed = capsys.readouterr().out
    assert resumed == plain


def test_resume_refuses_a_legacy_layout_journal(capsys, tmp_path):
    """A journal in the pre-``counts`` two-type layout (written by an older
    release) holds no schedules to audit: resuming from it exits 2 before
    any report, and leaves the file as it was."""
    from repro.engine import reset_default_engine

    fixture = Path(__file__).parents[1] / "data" / "legacy_journal_fig2_chains4.jsonl"
    assert '"big"' in fixture.read_text() and '"counts"' not in fixture.read_text()
    journal = tmp_path / "legacy.jsonl"
    shutil.copy(fixture, journal)
    reset_default_engine()
    assert main(["fig2", "--chains", "4", "--resume", str(journal)]) == 2
    assert capsys.readouterr().out == ""
    assert journal.read_bytes() == fixture.read_bytes()


def test_resume_from_a_tampered_journal_exits_two(capsys, tmp_path):
    """A row whose period was edited fails its audit at replay: no report
    is printed from it."""
    import json

    from repro.engine import reset_default_engine

    journal = tmp_path / "run.jsonl"
    reset_default_engine()
    assert main(["fig2", "--chains", "2", "--resume", str(journal)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in journal.read_text().splitlines()]
    rows[-1]["period"] *= 0.5
    journal.write_text("".join(json.dumps(row) + "\n" for row in rows))
    reset_default_engine()
    assert main(["fig2", "--chains", "2", "--resume", str(journal)]) == 2
    assert capsys.readouterr().out == ""
    reset_default_engine()


def test_obs_flags_default_off():
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.trace is None
    assert args.flamegraph is None
    assert args.metrics is False
    assert args.log_level == "info"


def test_log_level_parses_and_rejects_unknown():
    parser = build_parser()
    assert parser.parse_args(["table1", "--log-level", "debug"]).log_level == "debug"
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--log-level", "verbose"])


def test_traced_run_matches_plain_and_writes_valid_trace(capsys, tmp_path):
    """--trace must not change stdout, and must emit Chrome-valid JSON."""
    import json

    from repro.obs.export import validate_chrome_trace

    assert main(["fig2", "--chains", "6"]) == 0
    plain = capsys.readouterr().out
    trace = tmp_path / "trace.json"
    assert main(["fig2", "--chains", "6", "--trace", str(trace), "--jobs", "2"]) == 0
    traced = capsys.readouterr().out
    assert traced == plain
    document = json.loads(trace.read_text())
    assert validate_chrome_trace(document) == []
    names = {event["name"] for event in document["traceEvents"]}
    assert "experiment" in names and "campaign" in names


class TestSolveSubcommand:
    def test_cores_spec_parses_labels_and_counts(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "--cores", "big=8,little=8,mid=4"])
        resources, labels = args.cores
        assert resources.counts == (8, 8, 4)
        assert labels == ("big", "little", "mid")

    def test_cores_spec_accepts_bare_counts(self):
        parser = build_parser()
        resources, labels = parser.parse_args(
            ["solve", "--cores", "6,8"]
        ).cores
        assert resources.counts == (6, 8)
        assert labels == ("big", "little")

    def test_cores_spec_rejects_garbage(self):
        parser = build_parser()
        for spec in ("", "big=x", "big=-1", "=3", "0,0"):
            with pytest.raises(SystemExit):
                parser.parse_args(["solve", "--cores", spec])

    def test_two_type_solve_runs(self, capsys):
        assert main(["solve", "--cores", "big=4,little=4", "--chains", "2"]) == 0
        out = capsys.readouterr().out
        assert "platform: big=4, little=4  (k=2)" in out
        assert out.count("period=") == 2
        # Batched HeRAD (audited as optimal) and the memoised 2CATAC walk;
        # the audit prints nothing of its own.
        strategies = ["--strategy", "herad", "--strategy", "2catac"]
        assert main(["solve", "--cores", "big=4,little=4", "--chains", "2", *strategies]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "platform: big=4, little=4  (k=2)",
            "chain-k2-0-0  herad        period=116  usage=(4B, 4L)",
            "chain-k2-0-0  2catac       period=116  usage=(4B, 4L)",
            "chain-k2-0-1  herad        period=180  usage=(4B, 4L)",
            "chain-k2-0-1  2catac       period=180  usage=(4B, 4L)",
        ]

    def test_ktype_solve_certifies(self, capsys, monkeypatch):
        import repro.cli

        audited = []
        audit = repro.cli.certify_outcome

        def recording(outcome, *args, **kwargs):
            audited.append(kwargs["context"])
            return audit(outcome, *args, **kwargs)

        monkeypatch.setattr(repro.cli, "certify_outcome", recording)
        assert main(["solve", "--cores", "big=3,little=3,lpe=2", "--chains", "2"]) == 0
        out = capsys.readouterr().out
        assert "(k=3)" in out
        assert audited == ["ktype_ref", "ktype_ref"]

    def test_failed_audit_exits_two(self, capsys, monkeypatch):
        import dataclasses

        from repro.core.registry import STRATEGIES

        honest = STRATEGIES["ktype_ref"]

        def lying(profile, resources):
            outcome = honest.func(profile, resources)
            return dataclasses.replace(outcome, period=outcome.period * 0.5)

        monkeypatch.setitem(STRATEGIES, "ktype_ref", dataclasses.replace(honest, func=lying))
        assert main(["solve", "--cores", "2,2", "--chains", "1", "--num-tasks", "4"]) == 2
        assert "period=" not in capsys.readouterr().out

    def test_heuristics_run_on_ktype_platform(self, capsys):
        assert (
            main(
                [
                    "solve", "--cores", "3,3,2",
                    "--strategy", "fertac", "--strategy", "2catac",
                    "--chains", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("fertac") == 2 and out.count("2catac") == 2

    def test_two_type_only_strategy_rejected_on_ktype(self, capsys):
        assert (
            main(["solve", "--cores", "3,3,2", "--strategy", "herad"]) == 2
        )

    def test_unknown_strategy_rejected(self):
        assert (
            main(["solve", "--cores", "4,4", "--strategy", "nope"]) == 2
        )


def test_metrics_flag_prints_run_report(capsys):
    from repro.engine import reset_default_engine

    # Drop the shared memo so the report shows real solves, not just replay.
    reset_default_engine()
    assert main(["fig2", "--chains", "6", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "== Run report ==" in out
    assert "memo:" in out
    assert "failures: none" in out
    reset_default_engine()
    assert main(["fig2", "--chains", "6", "--metrics", "--jobs", "2"]) == 0
    assert "parallel efficiency (2 workers):" in capsys.readouterr().out


def test_report_histograms_carry_their_unit(capsys):
    """Golden lines of ``table1 --chains 2 --metrics``: a period is weight
    units and prints bare (it read "mean=110807.870ms"); only a histogram
    whose name has a ``seconds`` segment is a time and prints as ms."""
    import re

    from repro.engine import reset_default_engine

    reset_default_engine()
    assert main(["table1", "--chains", "2", "--metrics", "--jobs", "1"]) == 0
    reset_default_engine()
    report = capsys.readouterr().out.split("== Run report ==")[1].splitlines()
    histograms = report[report.index("histograms:") + 1:]
    assert histograms[:5] == [
        "  solve.period.2catac: n=18 mean=110.808 p50=94.642 p90=190.590 p99=202.000 min=72.000 max=202.000",
        "  solve.period.fertac: n=18 mean=111.478 p50=94.642 p90=190.590 p99=202.000 min=72.000 max=202.000",
        "  solve.period.herad: n=18 mean=110.352 p50=94.642 p90=190.590 p99=202.000 min=72.000 max=202.000",
        "  solve.period.otac_b: n=18 mean=165.778 p50=138.395 p90=284.331 p99=300.000 min=72.000 max=300.000",
        "  solve.period.otac_l: n=18 mean=508.222 p50=399.474 p90=871.465 p99=889.070 min=262.000 max=898.000",
    ]
    timed = re.compile(
        r"  solve\.seconds\.\w+ \(seconds per instance, one value per solve group\): "
        r"n=9 mean=[\d.]+ms p50=[\d.]+ms p90=[\d.]+ms "
        r"p99=[\d.]+ms min=[\d.]+ms max=[\d.]+ms"
    )
    assert len(histograms) == 10 and all(timed.fullmatch(line) for line in histograms[5:])


def test_flamegraph_flag_writes_validating_collapsed_stacks(capsys, tmp_path):
    """--flamegraph must not change stdout and must pass the structural oracle."""
    from repro.obs.profile import validate_flamegraph
    from repro.obs.context import current

    assert main(["fig2", "--chains", "6"]) == 0
    plain = capsys.readouterr().out
    folded = tmp_path / "run.folded"
    assert main(["fig2", "--chains", "6", "--flamegraph", str(folded)]) == 0
    assert capsys.readouterr().out == plain
    assert not current().active  # the obs context must not leak out of main()
    lines = folded.read_text().splitlines()
    assert lines
    # Grammar-only validation: the span buffer is gone by the time main()
    # returns, so rebuild the root set from the lines themselves.
    roots = {line.split(";", 1)[0].split(" ", 1)[0] for line in lines}
    assert "experiment" in roots


class TestBenchSubcommand:
    """``repro bench compare`` over two ledgers (``make_ledger``: tests/conftest.py)."""

    CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

    @staticmethod
    def _compare(tmp_path, baseline, candidate, *extra):
        import json

        paths = []
        for name, ledger in (("baseline", baseline), ("candidate", candidate)):
            paths.append(tmp_path / f"{name}.json")
            if ledger is not None:
                paths[-1].write_text(json.dumps(ledger))
        return main(
            [
                "bench", "compare",
                "--baseline", str(paths[0]),
                "--candidate", str(paths[1]),
                *extra,
            ]
        )

    def test_compare_passes_and_exits_zero(
        self, capsys, tmp_path, make_ledger, monkeypatch
    ):
        # --contract defaults to the BENCHMARK.json of the working directory.
        monkeypatch.chdir(self.CONTRACT.parent)
        assert self._compare(tmp_path, make_ledger(), make_ledger()) == 0
        out = capsys.readouterr().out
        assert "rows, all passed" in out and "FAIL" not in out

    def test_compare_exits_one_on_regression(self, capsys, tmp_path, make_ledger):
        slower = make_ledger()
        slower["results"]["solve_single.herad"]["metrics"]["wall_s"]["value"] *= 2
        code = self._compare(
            tmp_path, make_ledger(), slower, "--contract", str(self.CONTRACT)
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1
        assert "FAIL solve_single.herad wall_s:" in out

    def test_compare_exits_two_on_malformed_input(self, capsys, tmp_path, make_ledger):
        for baseline, candidate, reason in (
            (None, make_ledger(), "cannot read"),
            (make_ledger(), {"quick": True}, "no 'results' object"),
            (make_ledger(), make_ledger(quick=False), "not comparable: quick"),
            (make_ledger(affinity=1), make_ledger(), "not comparable: provenance.affinity"),
        ):
            code = self._compare(
                tmp_path, baseline, candidate, "--contract", str(self.CONTRACT)
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("bench compare: ") and reason in line
