"""Smoke tests of the performance ledger: ``python -m pytest perf/tests``.

Everything runs under ``--quick`` sizes; no number measured here means
anything.  (Not collected by the repo's tier-1 run: ``testpaths = ["tests"]``.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
REPO = PERF.parent
sys.path[:0] = [str(PERF), str(REPO / "src")]

import probes  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(PERF / "run.py")]


def run(*argv: str, cwd: Path = REPO) -> "subprocess.CompletedProcess[str]":
    return subprocess.run([*RUN, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)


def last_line(done: "subprocess.CompletedProcess[str]") -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_keeps_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["perf"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_manifest_and_code_name_the_same_workloads():
    declared = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_once_with_its_unit(workload: str, trace: int):
    done = run("--workload", workload, "--seed", "3", "--quick", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    line = last_line(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0
    if trace:
        assert (PERF / "out" / f"trace.{workload}.jsonl").stat().st_size > 0


def test_another_seed_makes_other_inputs():
    def fingerprints(seed: int) -> "list[str]":
        return [chain.fingerprint for chain, _, _ in workloads.solve_instances_for(seed, 3)]

    assert fingerprints(0) == fingerprints(0)
    assert fingerprints(0) != fingerprints(1)
    assert workloads.sub_seed(0, 1) != workloads.sub_seed(1, 0)


def test_a_missing_probe_target_reports_null(monkeypatch: pytest.MonkeyPatch):
    import repro.core.registry

    monkeypatch.delattr(repro.core.registry, "solve_batch")
    suite = probes.Probes(0, workloads.QUICK)
    names = ["core.kernels.batch1_ms.herad"]
    assert probes.guarded(names, suite.batch_of_one, suite.reasons) == {names[0]: None}
    assert "solve_batch" in suite.reasons[names[0]]


def test_a_corrupted_golden_digest_fails_its_ops(tmp_path: Path):
    golden = json.loads(verify.GOLDEN.read_text())
    key = str(workloads.QUICK.sim_events)
    golden["sim_bursty"][key]["keep"] += 1
    corrupted = tmp_path / "seed0.json"
    corrupted.write_text(json.dumps(golden))
    done = run("--workload", "sim_bursty", "--seed", "0", "--quick", "--golden", str(corrupted))
    assert done.returncode != 0
    line = last_line(done)
    assert line["correct"] is False and line["failed"] > 0


def test_a_failed_row_is_counted_not_hidden():
    table = {"seed": 0, "returncode": 0, "stderr": "", "stdout": "(16B, 4L) | 0.2 | HeRAD | ( 90.0%, 1.10, 1.00, 1.30 ) | ( 1.00, 1.00 )"}
    verdict = verify.check_tables([table, table], 1, workloads.QUICK, {}, seed=5)
    assert verdict.failed == verdict.attempted > 0


def test_only_surfaces_the_roadmap_keeps_are_called():
    banned = (
        "kernel=", "backend=", "chunk_size=", "worker_memo=", "shared_results=",
        "unit_wall=", "--kernel", "--unit-wall",
    )
    for source in PERF.glob("*.py"):
        text = source.read_text()
        assert not [word for word in banned if word in text], source.name


def test_without_the_program_there_is_no_result(tmp_path: Path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sim_bursty", "--seed", "0",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_a_run_leaves_no_process_behind():
    # The traced run starts process pools in-process; their resource tracker
    # exits only after the process that started it (see session.py).
    import ctypes

    assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # orphans come to us
    done = run("--workload", "table1_jobs", "--seed", "3", "--quick", "--trace", "1")
    assert done.returncode == 0, done.stderr
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_supervisor_kills_what_does_not_leave():
    import session

    script = "sleep 300 & setsid sleep 301 & exit 7"
    code = f"import session; raise SystemExit(session.supervised(['bash', '-c', {script!r}]))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=PERF, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 7
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
    assert "sleep 300" not in listing and "sleep 301" not in listing
    assert session.GRACE_S <= 5


def test_file_names_avoid_the_collected_bench_pattern():
    assert not list(PERF.rglob("bench_*.py"))
