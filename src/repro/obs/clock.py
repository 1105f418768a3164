"""The sanctioned clocks.

Every timing decision in the tree routes through this module so that the
project has exactly one place where "what does a timestamp mean" is decided.
Lint rule REP110 (``raw-timing``) enforces this: raw ``time.perf_counter()``
and ``time.time()`` calls are forbidden outside this module and
``repro.obs.profile``.

``monotonic()`` is :func:`time.perf_counter`, which on Linux is
``CLOCK_MONOTONIC`` — a *system-wide* clock, so span timestamps recorded in
forked or spawned worker processes are directly comparable with timestamps
from the parent process.  That property is what lets the Chrome-trace
exporter interleave worker spans with engine spans on one timeline without
any cross-process clock synchronisation step.

``wall()`` exists for the few places that need a human-meaningful timestamp
(trace and JSONL export headers); it must never be used to
measure durations.
"""

import time

__all__ = ["monotonic", "wall"]


def monotonic() -> float:
    """Seconds on a monotonic, system-wide clock; use for all durations."""
    return time.perf_counter()  # lint: ignore[raw-timing]


def wall() -> float:
    """Seconds since the epoch; for display only, never for durations."""
    return time.time()  # lint: ignore[raw-timing]
