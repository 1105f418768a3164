"""Shared fixtures of the engine tests."""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

import pytest

from repro.engine import pool as pool_mod


@pytest.fixture
def recording_pool(monkeypatch):
    """Install a recording ``ProcessPoolExecutor`` double at the engine's one
    executor construction site.

    The returned class lists every executor the engine built (``instances``),
    each with the ``(wait, cancel_futures)`` arguments of its shutdowns
    (``shutdown_calls``); setting ``broken`` makes ``map`` fail like a broken
    pool.
    """

    class RecordingProcessPool(ProcessPoolExecutor):
        instances: "list[RecordingProcessPool]" = []
        broken = False

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shutdown_calls: "list[tuple[bool, bool]]" = []
            type(self).instances.append(self)

        def map(self, fn, *iterables, **kwargs):
            if type(self).broken:
                raise BrokenExecutor("simulated broken pool")
            return super().map(fn, *iterables, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shutdown_calls.append((wait, cancel_futures))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordingProcessPool)
    return RecordingProcessPool
