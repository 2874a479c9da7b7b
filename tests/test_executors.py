"""Pluggable executor backends: factory and end-to-end runs.

The contract under test (docs/SWEEPS.md): every backend receives the same
pickled :class:`WorkerTask` and produces results *identical* to the
in-process pool, worker failures surface as the same structured
:class:`TaskFailure` records local ones do, a task timeout kills only the
hung child of the ``subprocess`` backend, and the coordinator alone
stores each fresh result in the result cache.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from concurrent.futures import process as futures_process
from pathlib import Path

import pytest

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments import parallel as parallel_mod
from repro.experiments.executors import (
    BACKENDS,
    LocalPoolBackend,
    SubprocessBackend,
    WorkerTask,
    create_backend,
)
from repro.experiments.parallel import (
    COPY,
    FATE_ALIVE,
    FATE_CRASHED,
    FATE_TIMED_OUT,
    LIMITED,
    FaultPolicy,
    SweepTask,
    run_tasks,
)
from repro.sim.engine import SimOptions
from repro.sim.resultcache import ResultCache
from repro.sim.serialize import results_identical
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import get
from repro.workloads.spec import BenchmarkSpec

from tests.conftest import build_offload_pipeline

NAMES = ("lonestar/bfs", "rodinia/kmeans")
SCALE = 1 / 512


def _options() -> SimOptions:
    return SimOptions(scale=SCALE, seed=11)


def _tasks(names=NAMES):
    return [SweepTask(get(name), v) for name in names for v in (COPY, LIMITED)]


def _run(tasks, *, jobs=2, policy=None, cache=None, backend=None):
    return run_tasks(
        tasks,
        discrete=discrete_gpu_system(),
        heterogeneous=heterogeneous_processor(),
        options=_options(),
        jobs=jobs,
        cache=cache,
        policy=policy,
        backend=backend,
    )


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    """Retry at once: these tests count attempts, not delays."""
    monkeypatch.setattr(parallel_mod, "BACKOFF_BASE_S", 0.0)


class TestBackendFactory:
    def test_registered_names(self):
        assert BACKENDS == ("local", "subprocess")

    def test_default_and_local(self):
        assert isinstance(create_backend(None), LocalPoolBackend)
        assert isinstance(create_backend("local"), LocalPoolBackend)

    def test_subprocess(self):
        assert isinstance(create_backend("subprocess"), SubprocessBackend)

    def test_instance_passes_through(self):
        backend = SubprocessBackend()
        assert create_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_backend("carrier-pigeon")


class TestSubprocessBackend:
    def test_results_identical_to_local_pool(self, tmp_path):
        """With a coordinator cache and without one, the subprocess
        backend returns the local pool's results."""
        local, lm = _run(
            _tasks(), cache=ResultCache(tmp_path / "a"), backend="local"
        )
        assert len(local) == 4 and not lm.failures
        for cache in (ResultCache(tmp_path / "b"), None):
            remote, rm = _run(_tasks(), cache=cache, backend="subprocess")
            assert set(remote) == set(local), cache
            for key, result in local.items():
                assert results_identical(result, remote[key]), (key, cache)
            assert rm.launched == 4 and not rm.failures

    def test_injected_kill_is_structured_and_needs_no_recycle(self, tmp_path):
        with injected_faults(
            {"rodinia/kmeans:copy": FaultRule("kill")}, counter_dir=tmp_path
        ):
            results, metrics = _run(
                _tasks(),
                backend="subprocess",
                policy=FaultPolicy(max_retries=1),
            )
        assert len(results) == 3
        [failure] = metrics.failures
        assert failure.benchmark == "rodinia/kmeans"
        assert failure.error_type == "WorkerCrash"
        assert failure.worker_fate == FATE_CRASHED
        assert failure.attempts == 2
        # The crash was isolated to one child — unlike the shared pool, no
        # backend recycle happened and bystander tasks kept running.
        assert metrics.pool_rebuilds == 0

    def test_remote_exception_reports_remote_type(self, tmp_path):
        with injected_faults(
            {"rodinia/kmeans:copy": FaultRule("raise")}, counter_dir=tmp_path
        ):
            results, metrics = _run(
                _tasks(),
                backend="subprocess",
                policy=FaultPolicy(max_retries=0),
            )
        assert len(results) == 3
        [failure] = metrics.failures
        assert failure.error_type == "FaultInjected"
        assert failure.worker_fate == FATE_ALIVE

    def test_warm_cache_synchronization(self, tmp_path, monkeypatch):
        """The coordinator stores each fresh result exactly once (worker
        children open no cache), and a second pass launches nothing."""
        stored = []
        store = ResultCache.store

        def counting_store(cache, key, result, sim_wall_s=0.0):
            stored.append(key)
            return store(cache, key, result, sim_wall_s=sim_wall_s)

        monkeypatch.setattr(ResultCache, "store", counting_store)
        cache = ResultCache(tmp_path / "coord")
        _, first = _run(_tasks(), cache=cache, backend="subprocess")
        assert first.launched == 4 and len(cache) == 4
        assert len(stored) == len(set(stored)) == 4
        _, second = _run(_tasks(), cache=cache, backend="subprocess")
        assert second.launched == 0
        assert second.cache_hits == 4
        assert len(stored) == 4

    def test_task_timeout_kills_only_the_hung_child(self, tmp_path):
        """A task timeout kills the one hung child and no other: the other
        three results arrive, no backend recycle is charged, and no worker
        child outlives the sweep."""
        with injected_faults(
            {"lonestar/bfs:limited-copy": FaultRule("hang")}, counter_dir=tmp_path
        ):
            results, metrics = _run(
                _tasks(),
                backend="subprocess",
                policy=FaultPolicy(task_timeout_s=1.5, max_retries=0),
            )
        assert len(results) == 3
        [failure] = metrics.failures
        assert (failure.benchmark, failure.version) == ("lonestar/bfs", LIMITED)
        assert failure.error_type == "TaskTimeout"
        assert failure.worker_fate == FATE_TIMED_OUT
        assert metrics.pool_rebuilds == 0
        assert multiprocessing.active_children() == []



#: The checkout's root: a worker child imports ``tests.conftest`` from
#: it to unpickle a spec whose builder lives there.
REPO_ROOT = Path(__file__).resolve().parents[1]


def _offload_spec() -> BenchmarkSpec:
    """An unregistered spec that pickles (its builder is a module-level
    function), as in ``test_unregistered_spec_still_sweeps_in_parallel``."""
    return BenchmarkSpec(
        name="offload",
        suite="testsuite",
        description="synthetic",
        pc_comm=True,
        pipe_parallel=True,
        regular_pc=True,
        irregular=False,
        sw_queue=False,
        build=build_offload_pipeline,
    )


class TestOneWorkerTask:
    """Every backend receives the same pickled :class:`WorkerTask`."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_unregistered_spec_runs_in_workers(self, name, monkeypatch):
        """The spec travels inside the task, and both runs happen in
        workers with the in-parent results."""
        path = [str(REPO_ROOT), os.environ.get("PYTHONPATH", "")]
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))
        spec = _offload_spec()
        tasks = [SweepTask(spec, version) for version in (COPY, LIMITED)]
        serial, _ = _run(tasks, jobs=1)
        backend = create_backend(name)
        submitted = []
        submit = backend.submit

        def spy(task):
            submitted.append(task)
            return submit(task)

        monkeypatch.setattr(backend, "submit", spy)
        results, metrics = _run(tasks, jobs=2, backend=backend)
        assert len(submitted) == 2
        assert all(task.spec is spec for task in submitted)
        assert metrics.launched == 2 and metrics.retries == 0
        assert not metrics.failures
        assert set(results) == set(serial)
        for key, result in serial.items():
            assert results_identical(result, results[key]), key



class TestLocalPoolTeardown:
    """Ending a pool leaves no worker alive and joins its manager thread.
    At interpreter exit ``concurrent.futures`` wakes every manager thread
    it still registers; one left running could be closing its wakeup
    pipe at that moment, and the exit printed ``OSError: [Errno 9] Bad
    file descriptor``."""

    @pytest.mark.parametrize("recycle", [False, True])
    def test_no_manager_thread_outlives_its_pool(self, recycle):
        task = WorkerTask(
            benchmark="lonestar/bfs",
            version=COPY,
            spec=None,
            system=discrete_gpu_system(),
            options=_options(),
            cache_key="teardown",
        )
        backend = LocalPoolBackend()
        backend.start(1)
        managers, workers = [], []
        for _ in range(2 if recycle else 1):
            if managers:
                backend.recycle()
            backend.submit(task).result()
            managers.append(weakref.ref(backend._pool._executor_manager_thread))
            workers += backend._pool._processes.values()
        backend.shutdown()
        assert workers and not any(worker.is_alive() for worker in workers)
        for manager in managers:
            thread = manager()
            assert thread is None or not thread.is_alive()
            assert thread not in futures_process._threads_wakeups


class TestRecycleBudget:
    """Satellite bugfix: task-timeout pool teardowns draw on the same
    bounded recycle budget as pool breaks (they previously recycled the
    pool without ever counting against ``MAX_POOL_REBUILDS``)."""

    def test_timeout_recycles_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel_mod, "MAX_POOL_REBUILDS", 1)
        policy = FaultPolicy(max_retries=4, task_timeout_s=0.75)
        with injected_faults(
            {"*": FaultRule("hang", times=2, hang_s=30.0)},
            counter_dir=tmp_path,
        ):
            results, metrics = _run(
                _tasks(("lonestar/bfs",)), jobs=2, policy=policy
            )
        assert len(results) == 2
        assert not metrics.failures
        # Two hang rounds would have torn the pool down twice; the budget
        # (1) forced degrade-to-serial instead of a second rebuild.
        assert metrics.pool_rebuilds <= parallel_mod.MAX_POOL_REBUILDS


class TestSerialBackoffHonored:
    """Satellite bugfix: a task that degrades out of the pool mid-retry
    keeps its pending backoff instead of being retried immediately."""

    def test_degraded_serial_honors_pending_backoff(
        self, tmp_path, monkeypatch
    ):
        recorded = []
        monkeypatch.setattr(parallel_mod, "_sleep", recorded.append)
        monkeypatch.setattr(parallel_mod, "BACKOFF_BASE_S", 2.0)
        monkeypatch.setattr(parallel_mod, "MAX_POOL_REBUILDS", 0)
        with injected_faults(
            {"rodinia/kmeans:copy": FaultRule("kill", times=1)},
            counter_dir=tmp_path,
        ):
            results, metrics = _run(
                _tasks(),
                jobs=2,
                policy=FaultPolicy(max_retries=2),
            )
        assert len(results) == 4
        assert not metrics.failures
        # The pool broke, charged the in-flight tasks a ~2s backoff, and
        # degraded to serial — which must observe that backoff.
        assert any(s >= 0.5 for s in recorded)
