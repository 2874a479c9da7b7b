"""Fault-tolerant sweep execution: every degradation path, exercised.

The supervisor in :mod:`repro.experiments.parallel` promises that a
failing, hanging, or crashing task never takes the sweep down with it:
completed results are returned and cached, failures are retried and then
reported as structured :class:`TaskFailure` records.  These tests drive
each path with the deterministic injector of :mod:`repro.testing.faults`
instead of trusting the promise.
"""

from __future__ import annotations

import pytest

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments import parallel
from repro.experiments.parallel import (
    COPY,
    FATE_ALIVE,
    FATE_CANCELLED,
    FATE_CRASHED,
    FATE_IN_PARENT,
    FATE_TIMED_OUT,
    LIMITED,
    FaultPolicy,
    SweepError,
    SweepMetrics,
    SweepTask,
    TaskFailure,
    run_tasks,
)
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.sim.resultcache import ResultCache
from repro.sim.serialize import results_identical
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import get

#: Two registered benchmarks x two versions: enough tasks that a sweep has
#: innocent bystanders for every injected fault, small enough to stay fast.
NAMES = ("lonestar/bfs", "rodinia/kmeans")
SCALE = 1 / 512


def _options() -> SimOptions:
    return SimOptions(scale=SCALE, seed=11)


def _tasks(names=NAMES):
    return [SweepTask(get(name), v) for name in names for v in (COPY, LIMITED)]


def _run(tasks, *, jobs=2, policy=None, cache=None):
    return run_tasks(
        tasks,
        discrete=discrete_gpu_system(),
        heterogeneous=heterogeneous_processor(),
        options=_options(),
        jobs=jobs,
        cache=cache,
        policy=policy,
    )


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    """Retry at once: these tests count attempts, not delays."""
    monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.0)


class TestWorkerException:
    def test_partial_results_and_structured_failure(self):
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            results, metrics = _run(
                _tasks(), policy=FaultPolicy(max_retries=1)
            )
        assert sorted(results) == [
            ("lonestar/bfs", LIMITED),
            ("rodinia/kmeans", COPY),
            ("rodinia/kmeans", LIMITED),
        ]
        (failure,) = metrics.failures
        assert failure.benchmark == "lonestar/bfs"
        assert failure.version == COPY
        assert failure.error_type == "FaultInjected"
        assert failure.attempts == 2  # first try + one retry
        assert failure.worker_fate == FATE_ALIVE
        assert metrics.retries == 1
        assert "injected fault" in failure.describe()

    def test_retry_then_succeed(self, tmp_path):
        rules = {"rodinia/kmeans:limited-copy": FaultRule("raise", times=1)}
        with injected_faults(rules, counter_dir=tmp_path):
            results, metrics = _run(_tasks(), policy=FaultPolicy(max_retries=2))
        assert len(results) == 4
        assert not metrics.failures
        assert metrics.retries >= 1
        assert metrics.launched == 4

    def test_lost_results_regression_all_done_futures_drained(self, tmp_path):
        """One failing future must not discard its batch-mates' finished
        results, and every fresh success must reach the cache."""
        cache = ResultCache(tmp_path / "cache")
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            results, metrics = _run(
                _tasks(), policy=FaultPolicy(max_retries=0), cache=cache
            )
        assert len(results) == 3
        assert len(metrics.failures) == 1
        assert metrics.launched == 3
        assert len(cache) == 3  # all successes persisted, failure absent

    def test_partial_results_equal_clean_run_subset(self):
        clean, _ = _run(_tasks(), jobs=1)
        with injected_faults({"rodinia/kmeans:copy": FaultRule("raise")}):
            faulted, metrics = _run(_tasks(), policy=FaultPolicy(max_retries=0))
        assert ("rodinia/kmeans", COPY) not in faulted
        assert len(faulted) == len(clean) - 1
        for key, result in faulted.items():
            assert results_identical(result, clean[key]), key


class TestWorkerCrash:
    def test_kill_once_rebuilds_pool_and_recovers(self, tmp_path):
        rules = {"rodinia/kmeans:copy": FaultRule("kill", times=1)}
        with injected_faults(rules, counter_dir=tmp_path):
            results, metrics = _run(_tasks(), policy=FaultPolicy(max_retries=2))
        assert len(results) == 4
        assert not metrics.failures
        assert metrics.pool_rebuilds >= 1

    def test_permanent_kill_reports_crashed_failure(self):
        with injected_faults({"rodinia/kmeans:copy": FaultRule("kill")}):
            results, metrics = _run(_tasks(), policy=FaultPolicy(max_retries=1))
        # A pool break charges every in-flight task (the culprit is
        # unknowable), so an innocent bystander may exhaust its retries
        # alongside the killer — but everything is accounted for.
        assert len(results) + len(metrics.failures) == 4
        assert ("rodinia/kmeans", COPY) not in results
        failures = {(f.benchmark, f.version): f for f in metrics.failures}
        culprit = failures[("rodinia/kmeans", COPY)]
        assert culprit.worker_fate == FATE_CRASHED
        assert culprit.error_type == "WorkerCrash"
        assert all(f.worker_fate == FATE_CRASHED for f in metrics.failures)

    def test_repeated_breaks_degrade_to_in_parent_serial(self, monkeypatch):
        """With no rebuild budget the sweep falls back to the parent
        process, where the injected kill degrades to a raise — the sweep
        still completes and the process survives."""
        monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 0)
        with injected_faults({"rodinia/kmeans:copy": FaultRule("kill")}):
            results, metrics = _run(_tasks(), policy=FaultPolicy(max_retries=3))
        assert len(results) == 3
        (failure,) = metrics.failures
        assert failure.worker_fate == FATE_IN_PARENT
        assert failure.error_type == "FaultInjected"
        assert metrics.pool_rebuilds == 0


class TestTaskTimeout:
    def test_hang_once_times_out_then_succeeds(self, tmp_path):
        rules = {"lonestar/bfs:limited-copy": FaultRule("hang", times=1, hang_s=60)}
        with injected_faults(rules, counter_dir=tmp_path):
            results, metrics = _run(
                _tasks(),
                policy=FaultPolicy(max_retries=1, task_timeout_s=2.0),
            )
        assert len(results) == 4
        assert not metrics.failures
        assert metrics.retries >= 1
        assert metrics.pool_rebuilds >= 1

    def test_permanent_hang_becomes_timed_out_failure(self):
        with injected_faults({"lonestar/bfs:limited-copy": FaultRule("hang", hang_s=60)}):
            results, metrics = _run(
                _tasks(),
                policy=FaultPolicy(max_retries=0, task_timeout_s=1.5),
            )
        assert len(results) == 3
        (failure,) = metrics.failures
        assert failure.worker_fate == FATE_TIMED_OUT
        assert failure.error_type == "TaskTimeout"


class TestFailFast:
    def test_stops_early_but_keeps_finished_results(self):
        clean, _ = _run(_tasks(), jobs=1)
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            results, metrics = _run(
                _tasks(),
                policy=FaultPolicy(max_retries=0, fail_fast=True),
            )
        # Everything is accounted for: finished, failed, or cancelled.
        assert len(results) + len(metrics.failures) == 4
        assert any(f.error_type == "FaultInjected" for f in metrics.failures)
        assert ("lonestar/bfs", COPY) not in results
        for key, result in results.items():
            assert results_identical(result, clean[key]), key

    def test_serial_fail_fast_cancels_remaining_tasks(self):
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            results, metrics = _run(
                _tasks(),
                jobs=1,
                policy=FaultPolicy(max_retries=0, fail_fast=True),
            )
        # Serial order is deterministic: bfs:copy fails first, everything
        # after it is cancelled.
        assert not results
        assert len(metrics.failures) == 4
        assert metrics.cancelled == 3
        assert {f.worker_fate for f in metrics.failures} == {
            FATE_IN_PARENT,
            FATE_CANCELLED,
        }


class TestSerialInParent:
    def test_raise_and_kill_both_contained(self):
        rules = {
            "lonestar/bfs:copy": FaultRule("raise"),
            "rodinia/kmeans:limited-copy": FaultRule("kill"),
        }
        with injected_faults(rules):
            results, metrics = _run(_tasks(), jobs=1, policy=FaultPolicy(max_retries=1))
        assert len(results) == 2
        assert len(metrics.failures) == 2
        assert all(f.worker_fate == FATE_IN_PARENT for f in metrics.failures)


class TestSweepRunnerIntegration:
    def test_sweep_returns_partial_and_reports_failures(self, tmp_path):
        specs = [get(name) for name in NAMES]
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            runner = SweepRunner(
                options=_options(),
                parallel=2,
                cache_dir=tmp_path,
                fault_policy=FaultPolicy(max_retries=0),
            )
            runs = runner.sweep(specs)
        assert sorted(runs) == ["rodinia/kmeans"]  # incomplete pair omitted
        (failure,) = runner.failures
        assert runner.last_metrics.failures == [failure]
        assert (failure.benchmark, failure.version) == ("lonestar/bfs", COPY)
        assert "[alive] FaultInjected" in failure.describe()
        # The successful half of the failed pair is still readable.
        assert runner.try_result(get("lonestar/bfs"), LIMITED) is not None
        assert runner.try_result(get("lonestar/bfs"), COPY) is None

    def test_failures_outlive_later_sweeps_in_pair_order(self):
        """A later sweep's success elsewhere clears nothing, and the
        outstanding failures list by (benchmark, version), not by when
        they happened."""
        runner = SweepRunner(
            options=_options(), fault_policy=FaultPolicy(max_retries=0)
        )
        rules = {
            "rodinia/kmeans:copy": FaultRule("raise"),
            "lonestar/bfs:limited-copy": FaultRule("raise"),
        }
        with injected_faults(rules):
            runner.sweep([get("rodinia/kmeans")])
            runner.sweep([get("lonestar/bfs")])
        assert [(f.benchmark, f.version) for f in runner.failures] == [
            ("lonestar/bfs", LIMITED),
            ("rodinia/kmeans", COPY),
        ]
        assert [f.benchmark for f in runner.last_metrics.failures] == [
            "lonestar/bfs"
        ]

    def test_run_raises_sweep_error_with_failures(self):
        spec = get("lonestar/bfs")
        runner = SweepRunner(
            options=_options(), fault_policy=FaultPolicy(max_retries=0)
        )
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            with pytest.raises(SweepError) as excinfo:
                runner.run(spec, COPY)
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].error_type == "FaultInjected"

    def test_failed_task_recovers_on_next_request(self, tmp_path):
        """A failure is not memoized: once the fault clears, re-requesting
        the pair re-simulates the failed half and clears its failure."""
        spec = get("lonestar/bfs")
        runner = SweepRunner(
            options=_options(),
            cache_dir=tmp_path,
            fault_policy=FaultPolicy(max_retries=0),
        )
        with injected_faults({"lonestar/bfs:copy": FaultRule("raise")}):
            with pytest.raises(SweepError):
                runner.pair(spec)
        assert len(runner.failures) == 1
        pair = runner.pair(spec)  # fault gone: succeeds
        assert pair.copy is not None
        assert runner.failures == []
        # Only the failed half re-ran; the limited version came from memo.
        assert runner.last_metrics.launched == 1


class TestCacheStoreFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_stores_keep_every_result(self, tmp_path, jobs):
        """A store that raises ``OSError`` costs persistence, not results.

        The cache root is a regular file, so every store fails with
        ``NotADirectoryError``; file permissions would not stop a test run
        as root, and disk-full or read-only stores take the same path.
        """
        root = tmp_path / "cache"
        root.write_text("not a directory")
        specs = [get(name) for name in NAMES]
        runner = SweepRunner(options=_options(), parallel=jobs, cache_dir=root)
        runs = runner.sweep(specs)
        assert sorted(runs) == sorted(NAMES)
        metrics = runner.last_metrics
        assert (metrics.launched, metrics.not_cached) == (4, 4)
        assert not metrics.failures
        assert "4 not cached" in metrics.format_line()
        # The results are memoized all the same.
        runner.sweep(specs)
        assert (runner.last_metrics.launched, runner.last_metrics.memo_hits) == (0, 4)
        assert "not cached" not in runner.last_metrics.format_line()


class TestDispatchClassification:
    def test_broken_reduce_surfaces_instead_of_degrading(self):
        """Only genuine pickling errors fall back to in-parent execution;
        a spec whose serialization explodes with an arbitrary error is a
        bug that must propagate."""
        from repro.workloads.spec import BenchmarkSpec
        from tests.conftest import build_offload_pipeline

        class ExplosiveBuilder:
            def __call__(self):
                return build_offload_pipeline()

            def __reduce__(self):
                raise RuntimeError("boom: broken __reduce__")

        spec = BenchmarkSpec(
            name="explosive",
            suite="testsuite",
            description="synthetic",
            pc_comm=True,
            pipe_parallel=True,
            regular_pc=True,
            irregular=False,
            sw_queue=False,
            build=ExplosiveBuilder(),
        )
        tasks = [SweepTask(spec, COPY), SweepTask(spec, LIMITED)]
        with pytest.raises(RuntimeError, match="boom"):
            _run(tasks, jobs=2)


class TestSpecWithoutPipelineModel:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fails_once_without_backoff(self, jobs, monkeypatch):
        """``BenchmarkSpec.pipeline()`` raises for it on every attempt, so
        it fails before dispatch after one attempt; the rest completes."""
        slept = []
        monkeypatch.setattr(parallel, "_sleep", slept.append)
        monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.25)
        tasks = _tasks(("lonestar/bfs_atomic", "rodinia/kmeans"))
        results, metrics = _run(tasks, jobs=jobs)
        assert sorted(results) == [
            ("rodinia/kmeans", COPY),
            ("rodinia/kmeans", LIMITED),
        ]
        assert [(f.benchmark, f.version) for f in metrics.failures] == [
            ("lonestar/bfs_atomic", COPY),
            ("lonestar/bfs_atomic", LIMITED),
        ]
        for failure in metrics.failures:
            assert failure.attempts == 1
            assert failure.worker_fate == FATE_IN_PARENT
            assert failure.error_type == "ValueError"
            assert "has no pipeline model" in failure.message
        assert metrics.retries == 0 and metrics.launched == 2
        assert slept == []


class TestSweepMetricsMerge:
    def _metrics(self, **kwargs) -> SweepMetrics:
        return SweepMetrics(**kwargs)

    def test_format_line_reports_single_sweep_speedup(self):
        single = self._metrics(
            total=4, launched=4, wall_s=2.0, serial_estimate_s=8.0
        )
        assert "(4.0x)" in single.format_line()

    def test_format_line_reports_retries_and_failures(self):
        failure = TaskFailure(
            benchmark="a/b",
            version=COPY,
            error_type="X",
            message="m",
            attempts=2,
            worker_fate=FATE_CRASHED,
        )
        metrics = self._metrics(total=4, retries=3, failures=[failure])
        line = metrics.format_line()
        assert "3 retries" in line
        assert "1 failed" in line
