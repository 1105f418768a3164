"""Shared fixtures of the engine tests."""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from functools import partial

import pytest

from repro.engine import executor, resilience
from repro.engine import pool as pool_mod


@pytest.fixture(autouse=True)
def immediate_retries(monkeypatch):
    """Retry without backoff sleeps: the delays are module constants of
    :mod:`repro.engine.resilience`, read at every retry, so zeroing the base
    makes each retry immediate (a test of the schedule patches its own)."""
    monkeypatch.setattr(resilience, "BASE_DELAY", 0.0)


@pytest.fixture
def recording_pool(monkeypatch):
    """Install a recording ``ProcessPoolExecutor`` double at the engine's one
    executor construction site.

    The returned class lists every executor the engine built (``instances``),
    each with the ``(wait, cancel_futures)`` arguments of its shutdowns
    (``shutdown_calls``); setting ``broken`` makes ``submit`` fail like a
    broken pool.
    """

    class RecordingProcessPool(ProcessPoolExecutor):
        instances: "list[RecordingProcessPool]" = []
        broken = False

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shutdown_calls: "list[tuple[bool, bool]]" = []
            type(self).instances.append(self)

        def submit(self, fn, /, *args, **kwargs):
            if type(self).broken:
                raise BrokenExecutor("simulated broken pool")
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shutdown_calls.append((wait, cancel_futures))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordingProcessPool)
    return RecordingProcessPool


@pytest.fixture
def unit_wall(monkeypatch):
    """``unit_wall(seconds)`` sets the wall the engine plans its next
    campaigns with; ``unit_wall(ONE_CELL_UNITS)`` makes every
    ``(chain, strategy)`` cell its own work unit.

    The engine plans in the parent process from
    ``executor.DEFAULT_UNIT_WALL_S``, read when a campaign starts, so pool
    workers need nothing; the constant is restored after the test.
    """
    return partial(monkeypatch.setattr, executor, "DEFAULT_UNIT_WALL_S")
