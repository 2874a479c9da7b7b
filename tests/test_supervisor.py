"""The one supervisor loop of :func:`repro.experiments.parallel.run_tasks`.

A scripted backend resolves every submit at once with an outcome drawn
per (task, attempt): success, an exception raised in the worker, a worker
crash, an exception reported by a worker child, a broken pool, or a hang
— a future that resolves only when killed, which a zero task timeout
kills at the first look.  One scripted backend kills a hung task alone
(surgical, like the ``subprocess`` backend), the other cannot and
recycles (like the local pool).  Whatever the script, the loop must
account for every task exactly once, stay inside the policy's retry and
rebuild budgets, report an exhausted hang as a timeout, and — once a
rebuild budget is spent — finish the leftovers in-parent with real
simulations, and futures that finish together must complete in
submission order.  The pool width helper is pinned here too.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Future
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments import parallel
from repro.experiments.executors import (
    ExecutorBackend,
    RemoteTaskError,
    TaskCrash,
    WorkerOutcome,
)
from repro.experiments.parallel import (
    COPY,
    FATE_CANCELLED,
    FATE_CRASHED,
    FATE_TIMED_OUT,
    LIMITED,
    FaultPolicy,
    SweepMetrics,
    SweepTask,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.sim.serialize import results_identical
from repro.workloads.registry import get

NAMES = ("lonestar/bfs", "rodinia/kmeans", "parboil/spmv")
OUTCOMES = ("ok", "raise", "crash", "remote", "broken", "hang")
TASKS = [SweepTask(get(name), v) for name in NAMES for v in (COPY, LIMITED)]
KEYS = {(task.full_name, task.version) for task in TASKS}
#: (error_type, worker_fate) of a task whose last attempt hung.
HANG_FAILURES = (
    ("TaskTimeout", FATE_TIMED_OUT),
    ("WorkerCrash", FATE_CRASHED),
    ("Cancelled", FATE_CANCELLED),
)


def _run(**kwargs):
    return run_tasks(
        TASKS,
        discrete=discrete_gpu_system(),
        heterogeneous=heterogeneous_processor(),
        options=SimOptions(scale=1 / 512, seed=11),
        **kwargs,
    )


class References(dict):
    """The reference results by (benchmark, version).  Its repr stays short
    because Hypothesis prints every argument of a falsifying example."""

    def __repr__(self) -> str:
        return f"<{len(self)} reference results>"


@pytest.fixture(scope="module")
def reference():
    results, metrics = _run(jobs=1)
    assert set(results) == KEYS and not metrics.failures
    return References(results)


class ScriptedBackend(ExecutorBackend):
    """Resolves each submit immediately with ``draw(task)``'s outcome, but
    a hung task's future only when the task is killed: surgically, or by
    a recycle."""

    name = "scripted"

    def __init__(self, draw, results):
        self._draw = draw
        self._results = results
        self._hung = []

    def start(self, workers):
        pass

    def submit(self, task):
        future = Future()
        outcome = self._draw(task)
        if outcome == "ok":
            future.set_result(
                WorkerOutcome(
                    wall_s=0.0,
                    result=self._results[(task.benchmark, task.version)],
                )
            )
        elif outcome == "raise":
            future.set_exception(ValueError("scripted failure"))
        elif outcome == "crash":
            future.set_exception(TaskCrash("scripted crash"))
        elif outcome == "remote":
            future.set_exception(RemoteTaskError("KeyError", "scripted remote failure"))
        elif outcome == "hang":
            self._hung.append(future)
        else:
            future.set_exception(BrokenExecutor("scripted pool break"))
        return future

    def kill_task(self, future):
        future.set_exception(TaskCrash("scripted kill"))
        self._hung.remove(future)
        return True

    def recycle(self):
        for future in self._hung:
            future.set_exception(BrokenExecutor("scripted recycle"))
        self._hung = []

    def shutdown(self):
        self.recycle()


class RecyclingBackend(ScriptedBackend):
    """A shared pool: it cannot kill one task, so a timeout recycles it."""

    def kill_task(self, future):
        return False


# No example count: the loaded Hypothesis profile's (see conftest.py).
scripted_sweeps = given(
    data=st.data(),
    budgets=st.fixed_dictionaries(
        {
            "jobs": st.integers(2, 4),
            "max_retries": st.integers(0, 3),
            "max_pool_rebuilds": st.integers(0, 2),
            "fail_fast": st.booleans(),
        }
    ),
)


def _check_scripted_sweep(
    backend_type, reference, data, jobs, max_retries, max_pool_rebuilds, fail_fast
):
    last = {}

    def draw(task):
        key = (task.benchmark, task.version)
        last[key] = data.draw(st.sampled_from(OUTCOMES), label=":".join(key))
        return last[key]

    policy = FaultPolicy(
        max_retries=max_retries, task_timeout_s=0.0, fail_fast=fail_fast
    )
    with mock.patch.multiple(
        parallel,
        _sleep=lambda s: None,
        BACKOFF_BASE_S=0.0,
        MAX_POOL_REBUILDS=max_pool_rebuilds,
    ):
        results, metrics = _run(
            jobs=jobs, policy=policy, backend=backend_type(draw, reference)
        )

    failed = [(f.benchmark, f.version) for f in metrics.failures]
    assert len(failed) == len(set(failed))
    assert set(results).isdisjoint(failed)
    assert set(results) | set(failed) == KEYS
    assert all(f.attempts <= max_retries + 1 for f in metrics.failures)
    assert metrics.pool_rebuilds <= max_pool_rebuilds
    assert metrics.launched == len(results)
    if not fail_fast:
        assert metrics.cancelled == 0
    # Scripted and in-parent successes alike are the reference results.
    for key, result in results.items():
        assert results_identical(result, reference[key]), key
    # An exhausted hang fails as a timeout — or as a crash when a pool
    # break charged it mid-hang, or as cancelled by fail-fast — and only a
    # hang times out.
    for f in metrics.failures:
        outcome = (f.error_type, f.worker_fate)
        if last.get((f.benchmark, f.version)) == "hang":
            assert outcome in HANG_FAILURES, outcome
        else:
            assert "TaskTimeout" not in outcome and FATE_TIMED_OUT not in outcome


@settings(deadline=None)
@scripted_sweeps
def test_every_task_accounted_once_within_budgets(reference, data, budgets):
    """Hung tasks are killed surgically, as the subprocess backend does."""
    _check_scripted_sweep(ScriptedBackend, reference, data, **budgets)


@settings(deadline=None)
@scripted_sweeps
def test_every_task_accounted_once_when_timeouts_recycle(reference, data, budgets):
    """A hung task's kill recycles the backend, as the local pool's does."""
    _check_scripted_sweep(RecyclingBackend, reference, data, **budgets)


@pytest.mark.parametrize("charge_running", [False, True])
def test_recycle_charges_running_tasks_only_for_a_break(charge_running):
    """A pool break charges every task it caught running (the culprit is
    unknowable); a timeout teardown requeues its innocent victims
    uncharged, due at once."""
    supervisor = parallel._Supervisor(FaultPolicy(), SweepMetrics(), None)
    state = parallel._TaskState(task=None, attempts=1, due=99.0)
    supervisor.running[Future()] = state
    with mock.patch.object(parallel, "BACKOFF_BASE_S", 0.0):
        assert supervisor._recycle(RecyclingBackend(None, {}), 5.0, charge_running)
    assert supervisor.queue == [state] and not supervisor.running
    assert state.attempts == 1 + charge_running and state.due == 5.0
    assert supervisor.metrics.retries == charge_running
    assert supervisor.metrics.pool_rebuilds == 1


class _ReverseHashFuture(Future):
    """A future whose hash falls as submissions rise, so a set of them
    does not iterate in submission order."""

    def __init__(self, seq):
        super().__init__()
        self._seq = seq

    def __hash__(self):
        return -self._seq


class ReverseHashBackend(ScriptedBackend):
    """Succeeds at submit, handing out :class:`_ReverseHashFuture`s."""

    def __init__(self, results):
        super().__init__(lambda task: "ok", results)
        self._submits = 0

    def submit(self, task):
        future = _ReverseHashFuture(self._submits)
        self._submits += 1
        future.set_result(super().submit(task).result())
        return future


def test_futures_finished_together_drain_in_submission_order(reference):
    """Every task is in flight at once and finished on submit, so one wait
    returns them all: they must complete in submission (task) order, not
    in the order a set of the futures happens to iterate."""
    results, metrics = _run(jobs=len(TASKS), backend=ReverseHashBackend(reference))
    assert list(results) == [(task.full_name, task.version) for task in TASKS]
    assert metrics.launched == len(TASKS)


class TestResolveJobs:
    def test_zero_counts_only_cpus_in_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_jobs(0) == 1
        assert SweepRunner(parallel=0).jobs == 1

    def test_zero_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_jobs(0) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(-1) == 1
