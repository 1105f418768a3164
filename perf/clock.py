"""Speed-normalised timing: a frozen reference kernel measured beside the work.

The sizing box (2 vCPUs of a shared host) runs the *same* code 30-60 %
slower for minutes at a time, and the slowdown moves within a second: raw
10 s medians of one fixed solver loop spread 0.28 (IQR / median) over five
minutes, past any bound the benchmark may set.  The slowdown is the
processor's, not the program's — user CPU time grows with the wall — and a
small-array numpy loop tracks it (correlation 0.96-0.98 with every solver),
so every timed region is divided by the reference kernel's time measured
within the same tens of milliseconds on the same CPU.  The same loop then
spreads 0.03.  Reported seconds are therefore *reference-speed seconds*:
``raw * REF_NOMINAL_S / ref_measured``; on a box running at the nominal
speed they equal wall-clock seconds.

Two ways to take the reference, one per kind of workload:

* in-process workloads interleave :func:`ref_seconds` calls with their own
  blocks of work (:func:`speed_factor` of the bracket);
* subprocess workloads cannot, so :class:`SpeedSampler` threads pinned to
  the child's CPUs run the kernel for ~1 ms every 50 ms and time it with the
  thread's CPU clock, which the child's preemptions do not inflate.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Seconds one :func:`ref_seconds` call takes on the sizing box in its fast
#: state; the unit that turns measured ratios back into seconds.
REF_NOMINAL_S = 1.0e-3
#: The same for a :class:`SpeedSampler` sample, which starts on a core whose
#: caches the measured program has just filled (1.1-1.2x, measured side by side).
SAMPLED_NOMINAL_S = 1.15e-3

_REF_VECTOR = np.arange(256, dtype=np.float64)
_REF_ROUNDS = 330


def _ref_kernel() -> float:
    # Small-array ufunc dispatch: the instruction mix the solvers are bound
    # by, and the one whose slowdown matches theirs (a pure-python loop slows
    # a third as much, a memory copy hardly at all).
    acc = 0.0
    vector = _REF_VECTOR
    for _ in range(_REF_ROUNDS):
        acc += (vector * 1.0001 + 1.0).max()
    return acc


def ref_seconds(clock=time.perf_counter) -> float:
    """Seconds one reference-kernel call takes right now, by ``clock``."""
    start = clock()
    _ref_kernel()
    return clock() - start


def speed_factor(*ref_samples: float) -> float:
    """Multiplier turning raw seconds into reference-speed seconds."""
    return REF_NOMINAL_S / statistics.fmean(ref_samples)


def pin_to(cpu: int) -> None:
    """Pin the calling thread (and the children it spawns) to one CPU."""
    os.sched_setaffinity(0, {cpu})


class SpeedSampler:
    """Background reference-kernel samples on each of ``cpus``.

    One thread per CPU, pinned; each sample is ``(monotonic time, kernel CPU
    seconds)``.  ``factor(start, end)`` normalises a region that ran between
    two monotonic instants on those CPUs.
    """

    def __init__(self, cpus: "list[int]", period_s: float = 0.05) -> None:
        self._cpus = list(cpus)
        self._period_s = period_s
        self._stop = threading.Event()
        self._samples: "list[list[tuple[float, float]]]" = [[] for _ in cpus]
        self._threads = [
            threading.Thread(target=self._run, args=(slot, cpu), daemon=True)
            for slot, cpu in enumerate(self._cpus)
        ]

    def __enter__(self) -> "SpeedSampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, slot: int, cpu: int) -> None:
        pin_to(cpu)
        samples = self._samples[slot]
        while not self._stop.is_set():
            samples.append((time.monotonic(), ref_seconds(time.thread_time)))
            self._stop.wait(self._period_s)

    def factor(self, start: float, end: float) -> float:
        """Speed factor of the monotonic interval ``[start, end]``.

        From the samples taken inside it; from each CPU's nearest sample when
        the interval is shorter than the sampling period.
        """
        inside = [
            seconds
            for samples in self._samples
            for stamp, seconds in samples
            if start <= stamp <= end
        ]
        if not inside:
            middle = (start + end) / 2
            inside = [
                min(samples, key=lambda sample: abs(sample[0] - middle))[1]
                for samples in self._samples
            ]
        return SAMPLED_NOMINAL_S / statistics.fmean(inside)
