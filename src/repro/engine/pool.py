"""The engine's one worker pool: built on first use, kept until discarded.

A Table I sweep is nine small campaigns, and a pool per campaign spawned
nine sets of workers to do a second of solving; :class:`WorkerPool` lets
every campaign of an engine borrow the same workers instead.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Iterator

__all__ = ["WorkerPool"]


class WorkerPool:
    """Lazily built, reusable process pool for one ``jobs`` at a time.

    The rule that keeps reuse safe: a dispatch round that does not end
    cleanly — a timeout, a broken pool, an interrupt, an abandoned
    generator — drops the executor without waiting on it, so hung or dead
    workers are never handed to the next round; the next borrow builds a
    fresh one.  Not thread-safe: owned and driven by one engine from its
    campaign loop.
    """

    def __init__(self) -> None:
        self._executor: "Executor | None" = None
        self._jobs: "int | None" = None

    @contextmanager
    def lease(self, jobs: int) -> Iterator[Executor]:
        """Lend the executor with ``jobs`` workers for one round.

        Reuses the live executor when it matches, otherwise retires it and
        builds the requested one.  Leaving the block on any exception
        (Ctrl-C and a closed generator included) discards the executor; a
        round that returns with work left behind does so itself.
        """
        if self._jobs != jobs:
            self.close()
        if self._executor is None:
            # The engine's only executor construction site (tests patch
            # this module's ``ProcessPoolExecutor`` with a recording double).
            self._executor = ProcessPoolExecutor(max_workers=jobs)
            self._jobs = jobs
        clean = False
        try:
            yield self._executor
            clean = True
        finally:
            if not clean:
                self.close(wait=False)

    def close(self, wait: bool = True) -> None:
        """Retire the executor (idempotent); ``wait=False`` abandons a hung one."""
        executor, self._executor, self._jobs = self._executor, None, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    # An owner dropped without close() would leave live workers to the
    # executor's own finalizer, which winds them down asynchronously and
    # races interpreter exit; the held executor is idle, so joining is quick.
    __del__ = close
