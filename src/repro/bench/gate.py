"""The perf-regression gate: tolerance checks over bench report JSON.

A bench report is a nested JSON document (``BENCH_engine.json``); a
tolerance file (``benchmarks/tolerances.json``) lists *checks*, each naming
one metric by dotted path and one judgment kind.  The gate philosophy,
shaped by the fact that CI hardware is not the baseline's hardware:

* ``flag_false`` — correctness flags (``engine_vs_serial_mismatch``,
  ``engine_vs_scalar.mismatch``): hard-fail if truthy, no tolerance.  A
  perf gate that waves through wrong answers is worse than none.
* ``higher_better`` / ``lower_better`` ratio metrics (speedups, hit rates):
  *same-run* ratios divide out the machine, so they gate tightly —
  ``candidate >= baseline * min_factor`` (resp. ``<=`` ``max_factor``).
* absolute wall times: machine- and noise-dependent, so they carry both a
  generous factor and an ``abs_slack`` floor — differences smaller than the
  slack never fail, which keeps microsecond-scale metrics from flapping.

Metrics present in the baseline but missing from the candidate fail (a
silently vanished scenario is a regression of the bench itself); metrics
missing from the *baseline* are skipped (new scenarios must not require a
baseline refresh in the same change).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.errors import InvalidParameterError

__all__ = [
    "Check",
    "CheckResult",
    "load_report",
    "load_tolerances",
    "lookup",
    "evaluate",
    "render_results",
    "seeded_slowdown",
    "compare_files",
]

_KINDS = ("flag_false", "higher_better", "lower_better")


@dataclass(frozen=True, slots=True)
class Check:
    """One tolerance entry: a metric path and how to judge it.

    ``requires_cores`` guards scaling checks: a speedup assertion judged on
    a single-core runner measures scheduler noise, not scaling, and would
    *pass vacuously* whenever the pinned-down candidate happens to tie the
    baseline.  The gate instead skips the check — explicitly, in the
    rendered output — when the candidate's recorded ``machine.cpu_affinity``
    is below the requirement (or absent: no evidence of cores is treated as
    one core).
    """

    metric: str
    kind: str
    min_factor: float | None = None
    max_factor: float | None = None
    abs_slack: float = 0.0
    requires_cores: int | None = None

    def __post_init__(self) -> None:
        if self.requires_cores is not None and self.requires_cores < 1:
            raise InvalidParameterError(
                f"check {self.metric!r}: requires_cores must be >= 1, got "
                f"{self.requires_cores}"
            )
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown check kind {self.kind!r} for {self.metric!r}; "
                f"available: {_KINDS}"
            )
        if self.kind == "higher_better" and self.min_factor is None:
            raise InvalidParameterError(
                f"check {self.metric!r}: higher_better requires min_factor"
            )
        if self.kind == "lower_better" and self.max_factor is None:
            raise InvalidParameterError(
                f"check {self.metric!r}: lower_better requires max_factor"
            )


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Verdict of one check against one (baseline, candidate) report pair."""

    check: Check
    baseline: Any
    candidate: Any
    passed: bool
    detail: str


def load_report(path: "str | Path") -> dict[str, Any]:
    """Parse a bench report; raises InvalidParameterError on bad input."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidParameterError(f"cannot read bench report {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"bench report {path} is not JSON: {exc}")
    if not isinstance(document, dict):
        raise InvalidParameterError(
            f"bench report {path} must be a JSON object, got "
            f"{type(document).__name__}"
        )
    return document


def load_tolerances(path: "str | Path") -> tuple[Check, ...]:
    """Parse a tolerance file into checks (schema errors raise)."""
    document = load_report(path)
    entries = document.get("checks")
    if not isinstance(entries, list) or not entries:
        raise InvalidParameterError(
            f"tolerance file {path} needs a non-empty 'checks' list"
        )
    checks: list[Check] = []
    for entry in entries:
        if not isinstance(entry, dict) or "metric" not in entry or "kind" not in entry:
            raise InvalidParameterError(
                f"tolerance file {path}: every check needs 'metric' and "
                f"'kind', got {entry!r}"
            )
        checks.append(
            Check(
                metric=str(entry["metric"]),
                kind=str(entry["kind"]),
                min_factor=entry.get("min_factor"),
                max_factor=entry.get("max_factor"),
                abs_slack=float(entry.get("abs_slack", 0.0)),
                requires_cores=(
                    None
                    if entry.get("requires_cores") is None
                    else int(entry["requires_cores"])
                ),
            )
        )
    return tuple(checks)


def lookup(report: dict[str, Any], dotted: str) -> Any:
    """Walk a dotted path into nested dicts; ``None`` when absent."""
    node: Any = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _judge(check: Check, baseline: Any, candidate: Any) -> tuple[bool, str]:
    if check.kind == "flag_false":
        if candidate:
            return False, f"flag is {candidate!r}, must be falsy"
        return True, "flag clear"

    if not isinstance(baseline, (int, float)) or isinstance(baseline, bool):
        return False, f"baseline value {baseline!r} is not numeric"
    if not isinstance(candidate, (int, float)) or isinstance(candidate, bool):
        return False, f"candidate value {candidate!r} is not numeric"

    if abs(candidate - baseline) <= check.abs_slack:
        return True, f"within abs_slack {check.abs_slack}"

    if check.kind == "higher_better":
        assert check.min_factor is not None
        floor = baseline * check.min_factor
        if candidate >= floor:
            return True, f"{candidate} >= {floor:.4g} (baseline x {check.min_factor})"
        return False, f"{candidate} < {floor:.4g} (baseline x {check.min_factor})"

    assert check.max_factor is not None
    ceiling = baseline * check.max_factor
    if candidate <= ceiling:
        return True, f"{candidate} <= {ceiling:.4g} (baseline x {check.max_factor})"
    return False, f"{candidate} > {ceiling:.4g} (baseline x {check.max_factor})"


def evaluate(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    checks: tuple[Check, ...],
) -> tuple[CheckResult, ...]:
    """Judge every check; baseline-missing metrics skip, candidate-missing fail."""
    results: list[CheckResult] = []
    for check in checks:
        base_value = lookup(baseline, check.metric)
        cand_value = lookup(candidate, check.metric)
        if check.requires_cores is not None:
            affinity = lookup(candidate, "machine.cpu_affinity")
            cores = (
                int(affinity)
                if isinstance(affinity, (int, float))
                and not isinstance(affinity, bool)
                else 1
            )
            if cores < check.requires_cores:
                results.append(
                    CheckResult(
                        check=check,
                        baseline=base_value,
                        candidate=cand_value,
                        passed=True,
                        detail=f"skipped: candidate ran on {cores} usable "
                        f"core(s), check requires {check.requires_cores}",
                    )
                )
                continue
        if check.kind != "flag_false" and base_value is None:
            results.append(
                CheckResult(
                    check=check,
                    baseline=None,
                    candidate=cand_value,
                    passed=True,
                    detail="not in baseline (skipped; refresh the baseline "
                    "to start gating it)",
                )
            )
            continue
        if cand_value is None:
            results.append(
                CheckResult(
                    check=check,
                    baseline=base_value,
                    candidate=None,
                    passed=False,
                    detail="missing from candidate report",
                )
            )
            continue
        passed, detail = _judge(check, base_value, cand_value)
        results.append(
            CheckResult(
                check=check,
                baseline=base_value,
                candidate=cand_value,
                passed=passed,
                detail=detail,
            )
        )
    return tuple(results)


def render_results(results: tuple[CheckResult, ...]) -> str:
    """Human-readable verdict table (one line per check, failures flagged)."""
    lines = ["== bench compare =="]
    for result in results:
        mark = "ok  " if result.passed else "FAIL"
        lines.append(
            f"  {mark} {result.check.metric}: "
            f"baseline={result.baseline!r} candidate={result.candidate!r} "
            f"({result.detail})"
        )
    failed = sum(1 for result in results if not result.passed)
    lines.append(
        f"{len(results)} checks, {failed} failed"
        if failed
        else f"{len(results)} checks, all passed"
    )
    return "\n".join(lines)


def seeded_slowdown(report: dict[str, Any], factor: float = 2.0) -> dict[str, Any]:
    """A copy of ``report`` with hot-path costs scaled by ``factor``.

    The gate's sensitivity self-test: wall times of the parallel, replay,
    engine-vs-scalar, and sim scenarios are multiplied and the derived
    same-run ratios recomputed, exactly as if every hot path got
    ``factor``x slower while the serial baseline stayed put.
    ``scripts/bench_gate.py`` asserts that comparing this against the fresh
    report exits non-zero.
    """
    seeded: dict[str, Any] = json.loads(json.dumps(report))

    walls = seeded.get("campaign_wall_s", {})
    serial_s = walls.get("serial")
    for name in list(walls):
        if name != "serial":
            walls[name] = walls[name] * factor
    speedups = seeded.get("speedup_vs_serial", {})
    if isinstance(serial_s, (int, float)):
        for name in list(speedups):
            wall = walls.get(name)
            if isinstance(wall, (int, float)) and wall > 0:
                speedups[name] = serial_s / wall

    versus = seeded.get("engine_vs_scalar", {})
    for name, tiers in versus.get("wall_s", {}).items():
        if "engine" in tiers:
            tiers["engine"] = tiers["engine"] * factor
        scalar_s = tiers.get("scalar")
        engine_s = tiers.get("engine")
        if (
            isinstance(scalar_s, (int, float))
            and isinstance(engine_s, (int, float))
            and engine_s > 0
        ):
            versus.setdefault("speedup", {})[name] = scalar_s / engine_s

    scaling = seeded.get("jobs_scaling", {})
    serial_s = scaling.get("serial_wall_s")
    for point in scaling.values():
        if not isinstance(point, dict) or "wall_s" not in point:
            continue
        point["wall_s"] = point["wall_s"] * factor
        if isinstance(serial_s, (int, float)) and point["wall_s"] > 0:
            point["speedup"] = serial_s / point["wall_s"]

    sim = seeded.get("sim_scenario", {})
    if isinstance(sim.get("wall_s"), (int, float)):
        sim["wall_s"] = sim["wall_s"] * factor
        if isinstance(sim.get("events"), (int, float)) and sim["wall_s"] > 0:
            sim["events_per_s"] = sim["events"] / sim["wall_s"]
    latency = sim.get("resched_latency_ms", {})
    for name in list(latency):
        latency[name] = latency[name] * factor

    for per_strategy in seeded.get("strategy_latency_us", {}).values():
        for name in list(per_strategy):
            per_strategy[name] = per_strategy[name] * factor

    return seeded


def compare_files(
    baseline_path: "str | Path",
    candidate_path: "str | Path",
    tolerance_path: "str | Path",
) -> tuple[CheckResult, ...]:
    """File-level convenience wrapper used by the CLI and the gate script."""
    return evaluate(
        load_report(baseline_path),
        load_report(candidate_path),
        load_tolerances(tolerance_path),
    )
