"""Untimed correctness checks: an op that fails one is missing, never fast.

Oracles, none of which shares code with the path it checks:

* every cell of a campaign is solved again through ``solve_batch`` and
  audited by ``core.certify``; Table I is aggregated again from those
  certified outcomes and compared, row by row, with what the program printed;
* HeRAD's period equals ``herad_reference`` on a seeded sample of cells, and
  no heuristic beats it anywhere;
* at seed 0 the outputs equal the digests committed under ``perf/golden/``,
  generated at the benchmark's parent commit ("tables bitwise unchanged").
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from workloads import BUDGETS, NUM_TASKS, RATIOS, Measurement, Sizes

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed0.json"
GOLDEN_SEED = 0

DISPLAY = {
    "herad": "HeRAD",
    "2catac": "2CATAC",
    "fertac": "FERTAC",
    "otac_b": "OTAC (B)",
    "otac_l": "OTAC (L)",
}
_REL_TOL = 1e-9
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: "list[str]" = field(default_factory=list)
    #: Output digests, for the golden file and for comparing workloads.
    digests: "dict[str, Any]" = field(default_factory=dict)

    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        if len(self.notes) < 20:
            self.notes.append(note)

    def close(self) -> "Verdict":
        self.failed = min(self.failed, self.attempted)
        return self


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(path: Path = GOLDEN) -> "dict[str, Any]":
    return json.loads(path.read_text()) if path.exists() else {}


def _check_golden(
    verdict: Verdict, golden: "dict[str, Any]", section: str, key: str,
    value: Any, ops: int,
) -> None:
    expected = golden.get(section, {}).get(key)
    if expected is not None and expected != value:
        verdict.fail(ops, f"{section}[{key}] differs from perf/golden")


# -- Table I -------------------------------------------------------------------


def parse_table(text: str) -> "list[tuple[str, ...]]":
    """The ``(R, SR, strategy, period stats, usage)`` cells of each data row."""
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) >= 5 and cells[0].startswith("("):
            rows.append(tuple(cells[:5]))
    return rows


def _row_invariants(row: "tuple[str, ...]") -> "str | None":
    """What holds for any Table I row; ``None`` when it does."""
    budget = [float(x) for x in _NUMBER.findall(row[0])]
    stats = [float(x) for x in _NUMBER.findall(row[3])]
    usage = [float(x) for x in _NUMBER.findall(row[4])]
    if len(budget) != 2 or len(stats) != 4 or len(usage) != 2:
        return "unparsable row"
    percent, avg, med, worst = stats
    if row[2] == DISPLAY["herad"] and stats != [100.0, 1.0, 1.0, 1.0]:
        return "HeRAD row is not optimal"
    if min(avg, med, worst) < 1.0 or worst < max(avg, med):
        return "a heuristic beats HeRAD"
    if not 0.0 <= percent <= 100.0:
        return "percentage out of range"
    if usage[0] > budget[0] or usage[1] > budget[1]:
        return "usage exceeds the budget"
    return None


def table_oracle(
    chains: int, seed: int, reference_cells: int
) -> "tuple[list[tuple[str, ...]], list[str]]":
    """Table I's rows rebuilt from certified ``solve_batch`` outcomes.

    Returns the expected rows and the cell-level failures (one note each).
    """
    import numpy as np
    from repro.core.certify import certify_outcome
    from repro.core.errors import CertificationError
    from repro.core.herad_reference import herad_reference
    from repro.core.registry import PAPER_ORDER, solve_batch
    from repro.core.types import Resources
    from repro.workloads.synthetic import GeneratorConfig, chain_batch

    rows = []
    failures = []
    picker = random.Random(seed)
    scenarios = [(b, sr) for b in BUDGETS for sr in RATIOS]
    sampled = {
        (picker.randrange(len(scenarios)), picker.randrange(chains))
        for _ in range(reference_cells)
    }
    for number, (budget, ratio) in enumerate(scenarios):
        resources = Resources(*budget)
        config = GeneratorConfig(num_tasks=NUM_TASKS, stateless_ratio=ratio)
        drawn = list(chain_batch(chains, config, seed=seed))
        outcomes = {s: solve_batch(drawn, resources, s) for s in PAPER_ORDER}
        for strategy, solved in outcomes.items():
            for chain, outcome in zip(drawn, solved):
                try:
                    certify_outcome(
                        outcome, chain, resources,
                        optimal=strategy == "herad", context=strategy,
                    )
                except CertificationError as error:
                    failures.append(f"certificate: {str(error)[:200]}")
        optimal = np.array([o.period for o in outcomes["herad"]])
        for index in (i for s, i in sorted(sampled) if s == number):
            literal = herad_reference(drawn[index], resources).period(drawn[index])
            if not math.isclose(literal, optimal[index], rel_tol=_REL_TOL):
                failures.append(
                    f"herad {optimal[index]!r} != herad_reference {literal!r}"
                )
        for strategy in PAPER_ORDER:
            solved = outcomes[strategy]
            ratios = np.array([o.period for o in solved]) / optimal
            if (ratios < 1.0 - _REL_TOL).any():
                failures.append(f"{strategy} beats herad at {resources}")
            used = [o.solution.core_usage(2) for o in solved]
            big = np.array([u.big for u in used], dtype=np.float64).mean()
            little = np.array([u.little for u in used], dtype=np.float64).mean()
            percent = float((ratios <= 1.0 + _REL_TOL).mean() * 100.0)
            rows.append(
                (
                    str(resources),
                    f"{ratio:.1f}",
                    DISPLAY[strategy],
                    f"( {percent:5.1f}%, {ratios.mean():4.2f}, "
                    f"{np.median(ratios):4.2f}, {ratios.max():4.2f} )",
                    f"( {big:5.2f}, {little:5.2f} )",
                )
            )
    return rows, failures


def check_tables(
    tables: "list[dict[str, Any]]", chains: int, sizes: Sizes,
    golden: "dict[str, Any]", seed: int,
) -> Verdict:
    """Printed Table I texts: ``{"seed", "stdout", "returncode"}`` each.

    The first is rebuilt by :func:`table_oracle` (1.5 s for 450 cells); the
    others must satisfy the row invariants.
    """
    verdict = Verdict()
    expected_rows = len(BUDGETS) * len(RATIOS) * len(DISPLAY)
    for position, table in enumerate(tables):
        cells = expected_rows * chains
        verdict.attempted += cells
        text = table["stdout"].rstrip("\n")
        verdict.digests[f"{chains}:{table['seed']}"] = sha(text)
        if table["returncode"] != 0:
            verdict.fail(cells, f"exit {table['returncode']}: {table['stderr'][-300:]}")
            continue
        rows = parse_table(text)
        if len(rows) != expected_rows:
            verdict.fail(cells, f"{len(rows)} rows printed, {expected_rows} expected")
            continue
        if position == 0:
            oracle, failures = table_oracle(
                chains, table["seed"], sizes.reference_cells
            )
            for note in failures:
                verdict.fail(1, note)
            for printed, rebuilt in zip(rows, oracle):
                if printed != rebuilt:
                    verdict.fail(chains, f"printed {printed} != certified {rebuilt}")
        else:
            for row in rows:
                broken = _row_invariants(row)
                if broken:
                    verdict.fail(chains, f"{broken}: {row}")
        if seed == GOLDEN_SEED:
            key = f"{chains}:{table['seed']}"
            _check_golden(verdict, golden, "table1", key, sha(text), cells)
    return verdict.close()


def check_replay(m: Measurement, sizes: Sizes, golden: "dict[str, Any]") -> Verdict:
    out = m.outputs
    cells = m.ops_per_pass
    verdict = check_tables(
        [{"seed": out["table_seed"], "stdout": out["cold_text"], "returncode": 0}],
        out["chains"], sizes, golden, m.seed,
    )
    # The cold table stands for every pass that printed the same bytes.
    verdict.attempted = cells * out["passes"]
    verdict.failed = out["passes"] * min(verdict.failed, cells)
    if not out["same_bytes"]:
        verdict.fail(verdict.attempted, "a replayed table differs from the cold one")
    memo = out["memo"]
    if memo["replay_misses"] != 0 or memo["replay_hits"] != verdict.attempted:
        verdict.fail(verdict.attempted, f"replay was not served by the memo: {memo}")
    verdict.digests["memo"] = memo
    return verdict.close()


# -- solve_single ----------------------------------------------------------------


def check_solves(m: Measurement, sizes: Sizes, golden: "dict[str, Any]") -> Verdict:
    from repro.core.certify import certify_outcome
    from repro.core.errors import CertificationError
    from repro.core.herad_reference import herad_reference
    from repro.core.registry import solve_batch

    strategy = m.outputs["strategy"]
    instances = m.outputs["instances"]
    outcomes = m.outputs["outcomes"]
    rounds = len(m.wall_s) * m.ops_per_pass // len(instances)
    verdict = Verdict(attempted=len(instances) * rounds)
    if len(outcomes) != len(instances):
        verdict.fail(verdict.attempted, "missing outcomes")
        return verdict.close()
    # HeRAD's optimum per instance, through the batch kernels: one call per budget.
    optimal = [math.nan] * len(instances)
    for budget in range(len(BUDGETS)):
        picked = range(budget, len(instances), len(BUDGETS))
        solved = solve_batch(
            [instances[i][1] for i in picked], instances[budget][2], "herad"
        )
        for i, outcome in zip(picked, solved):
            optimal[i] = outcome.period
    for (chain, _, resources), outcome, best in zip(instances, outcomes, optimal):
        try:
            certify_outcome(
                outcome, chain, resources,
                optimal=strategy == "herad", context=strategy,
            )
        except CertificationError as error:
            verdict.fail(rounds, f"certificate: {str(error)[:200]}")
            continue
        if outcome.period < best * (1.0 - _REL_TOL):
            verdict.fail(rounds, f"{strategy} {outcome.period!r} beats herad {best!r}")
        elif strategy == "herad" and not math.isclose(
            outcome.period, best, rel_tol=_REL_TOL
        ):
            verdict.fail(rounds, f"scalar herad {outcome.period!r} != batch {best!r}")
    picker = random.Random(m.seed)
    for index in picker.sample(range(len(instances)), sizes.reference_cells):
        chain, _, resources = instances[index]
        literal = herad_reference(chain, resources).period(chain)
        if not math.isclose(literal, optimal[index], rel_tol=_REL_TOL):
            verdict.fail(rounds, f"herad {optimal[index]!r} != reference {literal!r}")
    digest = sha(
        json.dumps(
            [
                [o.period.hex(), list(o.solution.core_usage(2))]
                for o in outcomes
            ]
        )
    )
    key = f"{strategy}:{len(instances)}"
    verdict.digests[key] = digest
    if m.seed == GOLDEN_SEED:
        _check_golden(verdict, golden, "solve_single", key, digest, verdict.attempted)
    return verdict.close()


# -- sim_bursty ------------------------------------------------------------------


def check_sim(m: Measurement, sizes: Sizes, golden: "dict[str, Any]") -> Verdict:
    counters = m.outputs["counters"]
    events = m.ops_per_pass
    verdict = Verdict(attempted=events * len(counters))
    if m.outputs["events"] != events:
        verdict.fail(verdict.attempted, f"{m.outputs['events']} events processed")
    for table in counters:
        if table["scheduleless"] or table["overcommit"]:
            verdict.fail(events, f"invariant violated: {table}")
        elif table != counters[0]:
            verdict.fail(events, f"ladder differs between passes: {table}")
    key = str(events)
    verdict.digests[key] = counters[0]
    if m.seed == GOLDEN_SEED:
        _check_golden(
            verdict, golden, "sim_bursty", key, counters[0], verdict.attempted
        )
    return verdict.close()


def check(m: Measurement, sizes: Sizes, golden: "dict[str, Any] | None" = None) -> Verdict:
    """Verify one workload's outputs."""
    golden = load_golden() if golden is None else golden
    if m.workload in ("table1_cli", "table1_jobs"):
        return check_tables(
            m.outputs["tables"], m.outputs["chains"], sizes, golden, m.seed
        )
    if m.workload == "table1_replay":
        return check_replay(m, sizes, golden)
    if m.workload.startswith("solve_single."):
        return check_solves(m, sizes, golden)
    return check_sim(m, sizes, golden)


def golden_section(workload: str) -> str:
    if workload.startswith("table1_"):
        return "table1"
    return workload.split(".")[0]
