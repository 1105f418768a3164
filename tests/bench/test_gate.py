"""Tests of the perf gate: two ledgers judged by ``BENCHMARK.json``'s bounds.

The ledgers are synthesised (``make_ledger`` in ``tests/conftest.py``) from
the real contract's workload and metric names, and every (workload, metric)
cell the contract names is a test case of its own — the seeded-slowdown
self-test of the gate, over every cell instead of one report.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.gate import compare, load_object, render_rows
from repro.core.errors import InvalidParameterError

from ..conftest import BENCHMARK_JSON

CONTRACT = json.loads(BENCHMARK_JSON.read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
METRICS = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
CELLS = [(workload, name) for workload in WORKLOADS for name in METRICS]

#: Relative worsening that makes a metric "2x worse": twice the time or the
#: memory, half the rate.
TWICE_AS_BAD = {"lower": 1.0, "higher": 0.5}


def worsened(ledger, cells, amount):
    """A copy of ``ledger`` with each cell moved by ``amount(metric)`` of its
    own value in the metric's worse direction (negative amounts improve)."""
    changed = copy.deepcopy(ledger)
    for workload, name in cells:
        metric = METRICS[name]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        cell = changed["results"][workload]["metrics"][name]
        cell["value"] *= 1.0 + sign * amount(metric)
    return changed


def failed(rows):
    return [(row.workload, row.metric) for row in rows if not row.passed]


def test_the_contract_names_what_the_fixture_holds(make_ledger):
    assert len(CELLS) == len(WORKLOADS) * len(METRICS) >= 2
    assert {metric["better"] for metric in METRICS.values()} == {"lower", "higher"}
    assert set(make_ledger()["results"]) == set(WORKLOADS)


def test_a_ledger_passes_against_itself(make_ledger):
    ledger = make_ledger()
    rows = compare(ledger, ledger, CONTRACT)
    # One row per cell, then one failed-ops row, workload by workload.
    assert [(row.workload, row.metric) for row in rows] == [
        (workload, name)
        for workload in WORKLOADS
        for name in (*METRICS, "failed_ops")
    ]
    assert failed(rows) == []
    assert render_rows(rows).endswith(f"{len(rows)} rows, all passed")


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{cell[0]}-{cell[1]}")
def test_a_seeded_2x_slowdown_fails_exactly_its_own_row(make_ledger, cell):
    ledger = make_ledger()
    slowed = worsened(ledger, [cell], lambda m: TWICE_AS_BAD[m["better"]])
    rows = compare(ledger, slowed, CONTRACT)
    assert failed(rows) == [cell]
    text = render_rows(rows)
    assert text.count("FAIL") == 1 and f"FAIL {cell[0]} {cell[1]}:" in text
    assert text.endswith("1 failed")


@pytest.mark.parametrize(
    "share_of_bound,failing", [(0.9, []), (1.1, CELLS)], ids=["inside", "beyond"]
)
def test_the_bound_is_each_metrics_own(make_ledger, share_of_bound, failing):
    ledger = make_ledger()
    moved = worsened(ledger, CELLS, lambda m: share_of_bound * m["bound"])
    assert failed(compare(ledger, moved, CONTRACT)) == failing


def test_an_improvement_passes(make_ledger):
    ledger = make_ledger()
    faster = worsened(ledger, CELLS, lambda m: -0.4)
    assert failed(compare(ledger, faster, CONTRACT)) == []


def test_the_higher_is_better_metric_is_judged_upwards(make_ledger):
    (rate,) = [name for name, metric in METRICS.items() if metric["better"] == "higher"]
    assert rate == "ops_per_s"
    ledger = make_ledger()
    # ... and a lower-is-better one (wall_s) the other way round.
    for name, factor, fails in (
        (rate, 2.0, False), (rate, 0.5, True), ("wall_s", 0.5, False), ("wall_s", 2.0, True)
    ):
        moved = copy.deepcopy(ledger)
        moved["results"]["sim_bursty"]["metrics"][name]["value"] *= factor
        verdict = [("sim_bursty", name)] if fails else []
        assert failed(compare(ledger, moved, CONTRACT)) == verdict


def test_a_dotted_workload_name_is_found(make_ledger):
    assert "solve_single.herad" in WORKLOADS
    ledger = make_ledger()
    rows = compare(ledger, ledger, CONTRACT)
    judged = [row for row in rows if row.workload == "solve_single.herad"]
    assert len(judged) == len(METRICS) + 1
    assert all(row.baseline is not None for row in judged)


def test_a_workload_missing_from_the_candidate_fails(make_ledger):
    ledger, without = make_ledger(), make_ledger()
    del without["results"]["table1_jobs"]
    rows = compare(ledger, without, CONTRACT)
    assert failed(rows) == [("table1_jobs", "*")]
    assert "FAIL table1_jobs *: (missing from candidate)" in render_rows(rows)


def test_a_workload_missing_from_the_baseline_is_skipped_and_says_so(make_ledger):
    ledger, without = make_ledger(), make_ledger()
    del without["results"]["table1_jobs"]
    rows = compare(without, ledger, CONTRACT)
    assert failed(rows) == []
    assert len(rows) == (len(WORKLOADS) - 1) * (len(METRICS) + 1) + 1
    assert "ok   table1_jobs *: (not in baseline (skipped))" in render_rows(rows)


def test_a_risen_failed_op_share_fails(make_ledger):
    ledger, flaky = make_ledger(), make_ledger()
    flaky["results"]["table1_cli"]["failed"] = 1  # 0 -> 1/450
    assert failed(compare(ledger, flaky, CONTRACT)) == [("table1_cli", "failed_ops")]
    # The share, not the count, is judged; and it may fall.
    assert failed(compare(flaky, ledger, CONTRACT)) == []
    twice_the_ops = copy.deepcopy(flaky)
    twice_the_ops["results"]["table1_cli"].update(attempted=900, failed=2)
    assert failed(compare(flaky, twice_the_ops, CONTRACT)) == []


@pytest.mark.parametrize(
    "other,named",
    [({"quick": False}, "quick"), ({"affinity": 1}, "provenance.affinity")],
    ids=["quick", "affinity"],
)
def test_ledgers_taken_differently_are_refused(make_ledger, other, named):
    with pytest.raises(InvalidParameterError, match=f"not comparable: {named} "):
        compare(make_ledger(), make_ledger(**other), CONTRACT)


def test_malformed_ledgers_and_contracts_are_refused(make_ledger):
    ledger = make_ledger()
    for broken in ({}, {"quick": True}, {"results": []}):
        with pytest.raises(InvalidParameterError, match="no 'results' object"):
            compare(ledger, broken, CONTRACT)
    drifted = make_ledger()
    del drifted["results"]["sim_bursty"]["metrics"]["cpu_s"]
    with pytest.raises(InvalidParameterError, match="candidate sim_bursty has no number"):
        compare(ledger, drifted, CONTRACT)
    zero = make_ledger()
    zero["results"]["sim_bursty"]["metrics"]["cpu_s"]["value"] = 0
    with pytest.raises(InvalidParameterError, match="baseline sim_bursty: .* not positive"):
        compare(zero, ledger, CONTRACT)
    with pytest.raises(InvalidParameterError, match="malformed benchmark contract"):
        compare(ledger, ledger, {"workloads": [{}], "end_to_end": []})


def test_load_object_names_the_unusable_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InvalidParameterError, match=f"cannot read {missing}"):
        load_object(missing)
    with pytest.raises(InvalidParameterError, match="cannot read"):
        load_object(tmp_path)  # a directory
    text = tmp_path / "ledger.txt"
    text.write_text("wall_s 0.5\n")
    with pytest.raises(InvalidParameterError, match=f"{text} is not JSON"):
        load_object(text)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(InvalidParameterError, match="must be a JSON object, got list"):
        load_object(array)
    assert load_object(BENCHMARK_JSON) == CONTRACT
