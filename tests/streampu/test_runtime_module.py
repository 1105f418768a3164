"""Tests for the threaded runtime and the task executors."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.herad import herad
from repro.core.task import TaskChain
from repro.core.types import Resources
from repro.streampu import module
from repro.streampu.module import (
    CallableTask,
    NumpyKernelTask,
    SyntheticSleepTask,
    executors_from_weights,
)
from repro.streampu.runtime import PipelineRuntime


class TestExecutors:
    def test_sleep_task_duration(self, monkeypatch):
        """The task sleeps its weight times its scale, in one sleep (which
        lasts at least what it is asked for)."""
        asked = []
        monkeypatch.setattr(module, "time", SimpleNamespace(sleep=asked.append))
        task = SyntheticSleepTask(weight=100.0, time_scale=1e-4)
        assert task.process("payload") == "payload"
        assert len(asked) == 1
        assert asked[0] >= 0.01  # 100 * 1e-4 seconds

    def test_sleep_task_passthrough(self):
        task = SyntheticSleepTask(weight=0.0)
        assert task.process("payload") == "payload"

    def test_gemm_task_runs(self):
        task = NumpyKernelTask(weight=2.0, size=8)
        assert task.process(5) == 5

    def test_callable_task(self):
        task = CallableTask(weight=1.0, func=lambda x: x * 2)
        assert task.process(21) == 42

    def test_executors_from_weights_sleep(self):
        execs = executors_from_weights([1.0, 2.0], kind="sleep")
        assert len(execs) == 2
        assert all(isinstance(e, SyntheticSleepTask) for e in execs)

    def test_executors_from_weights_gemm(self):
        execs = executors_from_weights([1.0], kind="gemm")
        assert isinstance(execs[0], NumpyKernelTask)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            executors_from_weights([1.0], kind="quantum")


class TestPipelineRuntime:
    def chain(self) -> TaskChain:
        # Weights in "fake microseconds" — scaled to be quick under test.
        return TaskChain.from_weights(
            [50, 100, 50], [100, 200, 100], [False, True, True]
        )

    def test_runs_and_orders_frames(self):
        chain = self.chain()
        solution = herad(chain, Resources(2, 1)).solution
        runtime = PipelineRuntime.from_solution(
            chain=chain, solution=solution, time_scale=2e-6
        )
        result = runtime.run(num_frames=30)
        assert result.payloads == tuple(range(30))
        assert (result.completion_times[1:] >= result.completion_times[:-1]).all()

    def test_payload_factory_and_callables(self):
        chain = self.chain()
        solution = herad(chain, Resources(2, 1)).solution
        doublers = [
            CallableTask(weight=1.0, func=lambda x: x * 2) for _ in range(3)
        ]
        runtime = PipelineRuntime.from_solution(
            chain=chain, solution=solution, executors=doublers
        )
        result = runtime.run(num_frames=10, payload_factory=lambda i: i + 1)
        # Three doubling tasks: payload * 8.
        assert result.payloads == tuple((i + 1) * 8 for i in range(10))

    def test_measured_period_near_analytic(self):
        chain = self.chain()
        solution = herad(chain, Resources(2, 1)).solution
        runtime = PipelineRuntime.from_solution(
            chain=chain, solution=solution, time_scale=5e-5
        )
        result = runtime.run(num_frames=40)
        # Threads, sleeps and the OS add overhead, never speedup beyond
        # scheduling noise.
        assert result.report.measured_period >= 0.7 * result.report.analytic_period
        assert result.report.efficiency <= 1.3

    def test_replication_speeds_up_wall_clock(self):
        # One replicable task; 1 vs 3 workers.
        chain = TaskChain.from_weights([400], [400], [True])
        slow_sol = herad(chain, Resources(1, 0)).solution
        fast_sol = herad(chain, Resources(3, 0)).solution
        scale = 2e-5
        slow = PipelineRuntime.from_solution(slow_sol, chain, time_scale=scale)
        fast = PipelineRuntime.from_solution(fast_sol, chain, time_scale=scale)
        t_slow = slow.run(num_frames=30).report.measured_period
        t_fast = fast.run(num_frames=30).report.measured_period
        assert t_fast < t_slow / 1.5

    def test_worker_error_propagates(self):
        chain = TaskChain.from_weights([1, 1], [1, 1], [False, False])
        solution = herad(chain, Resources(2, 0)).solution

        def boom(payload):
            raise RuntimeError("kaboom")

        runtime = PipelineRuntime.from_solution(
            chain=chain,
            solution=solution,
            executors=[
                CallableTask(1.0, lambda x: x),
                CallableTask(1.0, boom),
            ],
        )
        with pytest.raises(RuntimeError, match="kaboom"):
            runtime.run(num_frames=5, timeout=5.0)

    def test_needs_two_frames(self):
        chain = self.chain()
        solution = herad(chain, Resources(2, 1)).solution
        runtime = PipelineRuntime.from_solution(chain=chain, solution=solution)
        with pytest.raises(ValueError):
            runtime.run(num_frames=1)

    def test_group_count_validated(self):
        chain = self.chain()
        solution = herad(chain, Resources(2, 1)).solution
        runtime = PipelineRuntime.from_solution(chain=chain, solution=solution)
        with pytest.raises(ValueError):
            PipelineRuntime(runtime.spec, runtime.groups[:-1])
