"""Fault injection through the serve API: crashes become status codes.

The server dispatches every job through the PR 5 fault supervisor, so a
worker that raises — or dies outright mid-sweep — must surface as a
``partial`` (or ``failed``) job with the structured per-run failure
records of :class:`repro.experiments.parallel.TaskFailure`, visible over
HTTP, and the server itself must keep serving.  Never a hang, never a
500.
"""

from __future__ import annotations

from repro.experiments.parallel import FATE_CRASHED, FATE_IN_PARENT
from repro.serve import ServeConfig, ServerThread
from repro.testing.faults import FaultRule, injected_faults

KMEANS = "rodinia/kmeans"
BFS = "lonestar/bfs"
SCALE = 1 / 128


def _config(tmp_path, **overrides) -> ServeConfig:
    overrides.setdefault("port", 0)
    overrides.setdefault("jobs", 1)
    overrides.setdefault("concurrency", 1)
    overrides.setdefault("cache_dir", tmp_path / "cache")
    overrides.setdefault("max_retries", 0)
    return ServeConfig(**overrides)


def _sweep(*benchmarks):
    return {"kind": "sweep", "benchmarks": sorted(benchmarks), "scale": SCALE}


def _run_job(server, body, timeout_s=120.0):
    client = server.client(timeout_s=timeout_s)
    return client.run(body, timeout_s=timeout_s)


def test_raised_fault_yields_partial_with_structured_failure(tmp_path):
    with ServerThread(_config(tmp_path)) as server:
        with injected_faults({f"{BFS}:copy": FaultRule("raise")}):
            final = _run_job(server, _sweep(BFS, KMEANS))
    assert final["status"] == "partial"
    result = final["result"]
    # The innocent bystanders all completed.
    assert sorted(result["runs"]) == [
        f"{BFS}:limited-copy",
        f"{KMEANS}:copy",
        f"{KMEANS}:limited-copy",
    ]
    (failure,) = result["failures"]
    # Exactly the fields docs/SERVING.md lists for a failure record.
    assert set(failure) == {
        "benchmark", "version", "error_type", "message", "attempts", "worker_fate"
    }
    assert failure["benchmark"] == BFS
    assert failure["version"] == "copy"
    assert failure["error_type"] == "FaultInjected"
    assert failure["attempts"] == 1
    assert failure["worker_fate"] == FATE_IN_PARENT
    assert result["metrics"]["launched"] == 3


def test_killed_worker_yields_partial_not_a_hang(tmp_path):
    """A pool worker dying mid-sweep (the hardest failure) must complete
    the job with a ``crashed`` failure record over HTTP."""
    with ServerThread(_config(tmp_path, jobs=2)) as server:
        with injected_faults({f"{BFS}:copy": FaultRule("kill")}):
            final = _run_job(server, _sweep(BFS, KMEANS))
    assert final["status"] == "partial"
    result = final["result"]
    # A pool break charges every in-flight task (the culprit is
    # unknowable), so bystanders may fail alongside the killer — but
    # every run is accounted for, structured, and HTTP-visible.
    assert len(result["runs"]) + len(result["failures"]) == 4
    assert f"{BFS}:copy" not in result["runs"]
    failures = {
        (f["benchmark"], f["version"]): f for f in result["failures"]
    }
    culprit = failures[(BFS, "copy")]
    assert culprit["worker_fate"] == FATE_CRASHED
    assert culprit["error_type"] == "WorkerCrash"
    assert all(
        f["worker_fate"] == FATE_CRASHED for f in result["failures"]
    )
    assert result["metrics"]["pool_rebuilds"] >= 1


def test_retry_exhaustion_reports_attempts(tmp_path):
    with ServerThread(_config(tmp_path, max_retries=1)) as server:
        with injected_faults({f"{KMEANS}:copy": FaultRule("raise")}):
            final = _run_job(server, _sweep(KMEANS))
    (failure,) = final["result"]["failures"]
    assert failure["attempts"] == 2  # first try + one retry
    assert final["result"]["metrics"]["retries"] == 1


def test_transient_fault_retried_to_done(tmp_path):
    rules = {f"{KMEANS}:copy": FaultRule("raise", times=1)}
    with ServerThread(_config(tmp_path, max_retries=2)) as server:
        with injected_faults(rules, counter_dir=tmp_path / "faults"):
            final = _run_job(server, _sweep(KMEANS))
    assert final["status"] == "done"
    assert final["result"]["failures"] == []
    assert final["result"]["metrics"]["retries"] >= 1


def test_every_run_failing_yields_failed_status(tmp_path):
    rules = {
        f"{KMEANS}:copy": FaultRule("raise"),
        f"{KMEANS}:limited-copy": FaultRule("raise"),
    }
    with ServerThread(_config(tmp_path)) as server:
        with injected_faults(rules):
            final = _run_job(server, _sweep(KMEANS))
    assert final["status"] == "failed"
    assert final["result"]["runs"] == {}
    assert len(final["result"]["failures"]) == 2


def test_server_keeps_serving_after_faulted_job(tmp_path):
    """The partial-failure path must not poison the worker loop: the next
    (clean) job on the same server completes normally."""
    with ServerThread(_config(tmp_path)) as server:
        with injected_faults({f"{KMEANS}:copy": FaultRule("raise")}):
            faulted = _run_job(server, _sweep(KMEANS))
        clean = _run_job(server, _sweep(KMEANS, BFS))
        health = server.client().health()
    assert faulted["status"] == "partial"
    assert clean["status"] == "done"
    assert len(clean["result"]["runs"]) == 4
    assert health["status"] == "ok"


def test_failed_runs_counted_in_dedup_stats(tmp_path):
    with ServerThread(_config(tmp_path)) as server:
        with injected_faults({f"{KMEANS}:copy": FaultRule("raise")}):
            _run_job(server, _sweep(KMEANS))
        stats = server.client().cache_stats()
    assert stats["dedup"]["failed_runs"] == 1
    assert stats["dedup"]["computed_runs"] == 1  # the surviving run
