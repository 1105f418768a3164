"""Every shipped example must run cleanly (subprocess smoke tests)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, timeout: float = 180.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_examples_directory_populated():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3  # the deliverable floor; we ship more


def test_quickstart_output():
    out = run_example("quickstart.py")
    assert "HeRAD" in out and "FERTAC" in out
    assert "period" in out


def test_dvbs2_receiver_output():
    out = run_example("dvbs2_receiver.py")
    assert "Mac Studio" in out and "X7 Ti" in out
    assert "Mb/s" in out


def test_energy_sweep_output():
    out = run_example("energy_aware_sweep.py")
    assert "P(HeRAD)" in out and "power" in out


def test_custom_strategy_output():
    out = run_example("custom_strategy.py")
    assert "BIGFIRST" in out


def test_pipeline_visualization_output():
    out = run_example("pipeline_visualization.py")
    assert "Gantt" in out and "Pareto" in out


def test_static_vs_dynamic_output():
    out = run_example("static_vs_dynamic.py")
    assert "dynamic" in out and "STATIC" in out
