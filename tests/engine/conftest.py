"""Shared fixtures of the engine tests."""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.engine import pool as pool_mod


@pytest.fixture
def recording_pool(monkeypatch):
    """Install a recording ``ThreadPoolExecutor`` double on the thread tier.

    The returned class lists every executor the engine built (``instances``),
    each with the ``(wait, cancel_futures)`` arguments of its shutdowns
    (``shutdown_calls``); setting ``broken`` makes ``map`` fail like a broken
    pool.
    """

    class RecordingThreadPool(ThreadPoolExecutor):
        instances: "list[RecordingThreadPool]" = []
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

    monkeypatch.setitem(pool_mod._POOL_CLASSES, "thread", RecordingThreadPool)
    return RecordingThreadPool
