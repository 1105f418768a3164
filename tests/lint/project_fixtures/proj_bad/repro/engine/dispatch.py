"""Engine dispatch: a frozen WorkUnit crosses to the pool from the parent."""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from ..core.solvers import solve_chain

#: Parent-process bookkeeping: ``engine.dispatch`` is not one of the modules
#: a worker runs, so REP201 leaves this write alone.
_LAUNCHED: list[int] = []


@dataclass(frozen=True)
class WorkUnit:
    payload: Any


def run_unit(unit: WorkUnit) -> Any:
    return solve_chain(str(unit.payload))


def _launch(items: list[Any]) -> list[Any]:
    _LAUNCHED.append(len(items))
    with ProcessPoolExecutor() as pool:
        return list(pool.map(run_unit, [WorkUnit(item) for item in items]))
