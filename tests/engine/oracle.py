"""The scalar solvers as the engine tests' differential oracle.

The engine resolves every campaign through ``registry.solve_batch``; what it
must reproduce, bit for bit, is the plain ``get_strategy(s)(profile, R)`` map
— built here with no engine code on the path.
"""

from __future__ import annotations

import numpy as np

from repro.core.chain_stats import ChainProfile
from repro.core.registry import get_info
from repro.engine import StrategyArrays

#: A ``unit_wall`` no cell fits under, so the planner makes every
#: ``(chain, strategy)`` cell its own work unit — how tests force many units.
ONE_CELL_UNITS = 1e-9


def scalar_outcomes(chains, resources, names):
    """``{canonical name: [ScheduleOutcome per chain]}`` from the scalar solvers."""
    profiles = [ChainProfile(chain) for chain in chains]
    return {
        get_info(name).name: [
            get_info(name).func(profile, resources) for profile in profiles
        ]
        for name in names
    }


def scalar_arrays(chains, resources, names):
    """What ``CampaignEngine.solve_instances`` must return, solved cell by cell."""
    arrays = {}
    for name, outcomes in scalar_outcomes(chains, resources, names).items():
        usages = [o.solution.core_usage(resources.ktype) for o in outcomes]
        arrays[name] = StrategyArrays(
            periods=np.array([o.period for o in outcomes]),
            big_used=np.array([u.counts[0] for u in usages], dtype=np.int64),
            little_used=np.array(
                [u.counts[1] if u.ktype > 1 else 0 for u in usages],
                dtype=np.int64,
            ),
        )
    return arrays


def assert_same_arrays(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].periods, b[name].periods)
        np.testing.assert_array_equal(a[name].big_used, b[name].big_used)
        np.testing.assert_array_equal(a[name].little_used, b[name].little_used)
