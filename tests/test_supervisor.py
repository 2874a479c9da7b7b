"""The one supervisor loop of :func:`repro.experiments.parallel.run_tasks`.

A scripted backend resolves every submit at once with an outcome drawn
per (task, attempt): success, an exception raised in the worker, a worker
crash, an undecodable reply, or a broken pool.  Whatever the script, the
loop must account for every task exactly once, stay inside the policy's
retry and rebuild budgets, and — once a rebuild budget is spent — finish
the leftovers in-parent with real simulations.  The pool width helper is
pinned here too.
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
    TaskCrash,
    WireProtocolError,
    WorkerOutcome,
)
from repro.experiments.parallel import (
    COPY,
    LIMITED,
    FaultPolicy,
    SweepTask,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.sim.serialize import results_identical
from repro.workloads.registry import get

NAMES = ("lonestar/bfs", "rodinia/kmeans", "parboil/spmv")
OUTCOMES = ("ok", "raise", "crash", "wire", "broken")
TASKS = [SweepTask(get(name), v) for name in NAMES for v in (COPY, LIMITED)]
KEYS = {(task.full_name, task.version) for task in TASKS}


def _run(**kwargs):
    return run_tasks(
        TASKS,
        discrete=discrete_gpu_system(),
        heterogeneous=heterogeneous_processor(),
        options=SimOptions(scale=1 / 512, seed=11),
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference():
    results, metrics = _run(jobs=1)
    assert set(results) == KEYS and not metrics.failures
    return results


class ScriptedBackend(ExecutorBackend):
    """Resolves each submit immediately with ``draw(task)``'s outcome."""

    name = "scripted"

    def __init__(self, draw, results):
        self._draw = draw
        self._results = results

    def start(self, workers):
        pass

    def submit(self, task):
        future = Future()
        outcome = self._draw(task)
        if outcome == "ok":
            future.set_result(
                WorkerOutcome(
                    benchmark=task.benchmark,
                    version=task.version,
                    wall_s=0.0,
                    result=self._results[(task.benchmark, task.version)],
                )
            )
        elif outcome == "raise":
            future.set_exception(ValueError("scripted failure"))
        elif outcome == "crash":
            future.set_exception(TaskCrash("scripted crash"))
        elif outcome == "wire":
            future.set_exception(WireProtocolError("scripted garbage"))
        else:
            future.set_exception(BrokenExecutor("scripted pool break"))
        return future

    def recycle(self):
        pass

    def shutdown(self):
        pass


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    jobs=st.integers(2, 4),
    max_retries=st.integers(0, 3),
    max_pool_rebuilds=st.integers(0, 2),
    fail_fast=st.booleans(),
)
def test_every_task_accounted_once_within_budgets(
    reference, data, jobs, max_retries, max_pool_rebuilds, fail_fast
):
    def draw(task):
        return data.draw(
            st.sampled_from(OUTCOMES), label=f"{task.benchmark}:{task.version}"
        )

    policy = FaultPolicy(
        max_retries=max_retries,
        fail_fast=fail_fast,
        backoff_base_s=0.0,
        max_pool_rebuilds=max_pool_rebuilds,
    )
    with mock.patch.object(parallel, "_sleep", lambda s: None):
        results, metrics = _run(
            jobs=jobs, policy=policy, backend=ScriptedBackend(draw, reference)
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
