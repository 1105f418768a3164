"""Unit tests for the perf gate's core-gated scaling checks.

A speedup assertion judged on a single-core runner measures scheduler
noise, not scaling; ``Check.requires_cores`` makes the gate skip such
checks explicitly — visible in the rendered output — instead of letting
them pass vacuously.  Checks without the field judge exactly as before.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.gate import (
    Check,
    evaluate,
    load_tolerances,
    render_results,
)
from repro.core.errors import InvalidParameterError


def _reports(affinity):
    baseline = {
        "machine": {"cpu_affinity": 8},
        "jobs_scaling": {"python": {"jobs4": {"speedup": 3.4}}},
    }
    candidate = {
        "machine": {"cpu_affinity": affinity},
        "jobs_scaling": {"python": {"jobs4": {"speedup": 0.9}}},
    }
    return baseline, candidate


_SCALING = Check(
    metric="jobs_scaling.python.jobs4.speedup",
    kind="higher_better",
    min_factor=0.5,
    requires_cores=4,
)


class TestRequiresCores:
    def test_skipped_below_core_floor(self):
        baseline, candidate = _reports(affinity=1)
        (result,) = evaluate(baseline, candidate, (_SCALING,))
        assert result.passed
        assert "skipped" in result.detail
        assert "requires 4" in result.detail
        assert "skipped" in render_results((result,))

    def test_judged_at_or_above_core_floor(self):
        baseline, candidate = _reports(affinity=4)
        (result,) = evaluate(baseline, candidate, (_SCALING,))
        assert not result.passed  # 0.9 < 3.4 * 0.5: a real verdict, not a skip
        assert "skipped" not in result.detail

    def test_missing_affinity_treated_as_one_core(self):
        baseline, candidate = _reports(affinity=None)
        del candidate["machine"]["cpu_affinity"]
        (result,) = evaluate(baseline, candidate, (_SCALING,))
        assert result.passed
        assert "1 usable core" in result.detail

    def test_flag_checks_can_be_core_gated_too(self):
        check = Check(
            metric="jobs_scaling.mismatch", kind="flag_false", requires_cores=2
        )
        candidate = {"machine": {"cpu_affinity": 1}, "jobs_scaling": {"mismatch": True}}
        (result,) = evaluate({}, candidate, (check,))
        assert result.passed and "skipped" in result.detail

    def test_invalid_requires_cores_rejected(self):
        with pytest.raises(InvalidParameterError):
            Check(
                metric="x", kind="higher_better", min_factor=1.0,
                requires_cores=0,
            )


class TestToleranceParsing:
    def test_requires_cores_round_trips(self, tmp_path):
        path = tmp_path / "tolerances.json"
        path.write_text(
            json.dumps(
                {
                    "checks": [
                        {"metric": "a", "kind": "flag_false"},
                        {
                            "metric": "b.speedup",
                            "kind": "higher_better",
                            "min_factor": 0.5,
                            "requires_cores": 2,
                        },
                    ]
                }
            )
        )
        plain, gated = load_tolerances(path)
        assert plain.requires_cores is None
        assert gated.requires_cores == 2

    def test_shipped_tolerances_parse(self):
        from pathlib import Path

        shipped = (
            Path(__file__).resolve().parents[2] / "benchmarks" / "tolerances.json"
        )
        checks = load_tolerances(shipped)
        gated = [c for c in checks if c.requires_cores is not None]
        assert any(
            c.metric == "jobs_scaling.jobs4.speedup"
            and c.requires_cores == 4
            for c in gated
        )
        assert any(
            c.metric == "speedup_vs_serial.process_jobs2"
            and c.requires_cores == 2
            for c in gated
        )
