"""Table III — the DVB-S2 receiver's per-task latency profile.

The paper profiles each receiver task on both platforms and both core types
(Section VI-E, Table III); those numbers are this library's embedded
dataset.  The driver recomputes the four per-column totals from it, checks
them against the totals the paper prints, and renders the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import render_table
from ..sdr.dvbs2 import DVBS2_TASK_TABLE

__all__ = ["Table3Result", "run", "render"]

#: Totals printed at the bottom of Table III (Mac B, Mac L, X7 B, X7 L).
PAPER_TOTALS = (8530.8, 19841.3, 12592.5, 22530.7)


@dataclass(frozen=True)
class Table3Result:
    """The dataset plus recomputed totals."""

    totals: tuple[float, float, float, float]
    paper_totals: tuple[float, float, float, float]

    @property
    def totals_match(self) -> bool:
        """Whether the dataset reproduces the paper's printed totals."""
        return all(
            abs(a - b) < 0.5 for a, b in zip(self.totals, self.paper_totals)
        )


def run() -> Table3Result:
    """Recompute the Table III totals from the embedded dataset."""
    totals = (
        sum(r.mac_big for r in DVBS2_TASK_TABLE),
        sum(r.mac_little for r in DVBS2_TASK_TABLE),
        sum(r.x7_big for r in DVBS2_TASK_TABLE),
        sum(r.x7_little for r in DVBS2_TASK_TABLE),
    )
    return Table3Result(totals=totals, paper_totals=PAPER_TOTALS)


def render(result: Table3Result) -> str:
    """Render Table III with the recomputed totals."""
    rows = [
        [
            f"tau_{r.index}",
            r.name,
            "yes" if r.replicable else "no",
            f"{r.mac_big:.1f}",
            f"{r.mac_little:.1f}",
            f"{r.x7_big:.1f}",
            f"{r.x7_little:.1f}",
        ]
        for r in DVBS2_TASK_TABLE
    ]
    rows.append(
        [
            "",
            "Total",
            "",
            f"{result.totals[0]:.1f}",
            f"{result.totals[1]:.1f}",
            f"{result.totals[2]:.1f}",
            f"{result.totals[3]:.1f}",
        ]
    )
    table = render_table(
        ["Id", "Task", "Rep.", "Mac B", "Mac L", "X7 B", "X7 L"],
        rows,
        title="Table III — DVB-S2 receiver average task latency (us per batch)",
    )
    status = "match" if result.totals_match else "MISMATCH"
    return (
        f"{table}\n"
        f"Totals vs paper ({', '.join(f'{t:.1f}' for t in result.paper_totals)}): "
        f"{status}"
    )
