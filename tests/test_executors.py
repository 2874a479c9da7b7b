"""Pluggable executor backends: wire format, factory, and end-to-end runs.

The contract under test (docs/SWEEPS.md): every backend produces results
*identical* to the in-process pool, remote failures surface as the same
structured :class:`TaskFailure` records local ones do (now with per-host
attribution), and the warm-cache synchronization leaves the coordinator's
result cache filled by remote work.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments import parallel as parallel_mod
from repro.experiments.executors import (
    BACKENDS,
    LocalPoolBackend,
    RemoteTaskError,
    SubprocessBackend,
    WireProtocolError,
    WorkerOutcome,
    WorkerTask,
    create_backend,
)
from repro.experiments.executors.wire import (
    decode_result,
    decode_task,
    encode_error,
    encode_outcome,
    encode_task,
)
from repro.experiments.parallel import (
    COPY,
    FATE_ALIVE,
    FATE_CRASHED,
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


def _fast(**kwargs) -> FaultPolicy:
    kwargs.setdefault("backoff_base_s", 0.0)
    return FaultPolicy(**kwargs)


def _worker_task(**overrides) -> WorkerTask:
    fields = dict(
        benchmark="lonestar/bfs",
        version=COPY,
        spec_blob=None,
        system=discrete_gpu_system(),
        options=_options(),
        cache_key="k" * 16,
        cache_dir=None,
        sync_cache=True,
    )
    fields.update(overrides)
    return WorkerTask(**fields)


class TestWireFormat:
    def test_task_document_golden(self, golden_json):
        """The task wire document is pinned: a drift here breaks mixed
        coordinator/worker versions in a real distributed deployment."""
        payload = json.loads(encode_task(_worker_task()))
        golden_json("executors/task_doc", payload)

    def test_error_document_golden(self, golden_json):
        payload = json.loads(
            encode_error(
                "rodinia/kmeans", LIMITED, "ValueError", "boom", host="n1"
            )
        )
        golden_json("executors/error_result", payload)

    def test_task_round_trip(self):
        task = _worker_task(
            spec_blob=b"\x80\x04pickled", cache_dir="/srv/repro-cache"
        )
        decoded = decode_task(encode_task(task))
        assert decoded == task

    def test_outcome_entry_bytes_round_trip(self):
        outcome = WorkerOutcome(
            benchmark="lonestar/bfs",
            version=COPY,
            wall_s=0.25,
            memo_hits=3,
            memo_misses=1,
            host="n2",
            cache_hit=True,
            entry_bytes=b"\x1f\x8bnot-really-gzip-but-opaque-here",
        )
        decoded = decode_result(encode_outcome(outcome))
        assert decoded == outcome

    def test_outcome_result_round_trip(self):
        results, _ = _run(_tasks(("lonestar/bfs",)), jobs=1)
        result = results[("lonestar/bfs", COPY)]
        decoded = decode_result(
            encode_outcome(
                WorkerOutcome(
                    benchmark="lonestar/bfs",
                    version=COPY,
                    wall_s=0.5,
                    result=result,
                )
            )
        )
        assert results_identical(decoded.result, result)

    def test_error_reply_decodes_to_remote_task_error(self):
        data = encode_error("a/b", COPY, "KeyError", "missing", host="n3")
        with pytest.raises(RemoteTaskError) as excinfo:
            decode_result(data)
        assert excinfo.value.error_type == "KeyError"
        assert excinfo.value.host == "n3"

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"{not json",
            b'"a string"',
            b'{"schema": "somebody.else/v9"}',
            b'{"schema": "repro.executor.result/v1", "ok": true}',
            b'{"schema": "repro.executor.result/v1", "ok": true, '
            b'"benchmark": "x", "version": "copy", "wall_s": 1.0, '
            b'"entry_b64": "%%%not-base64%%%"}',
        ],
    )
    def test_malformed_replies_raise_wire_protocol_error(self, data):
        with pytest.raises(WireProtocolError):
            decode_result(data)

    def test_truncated_reply_raises_wire_protocol_error(self):
        data = encode_outcome(
            WorkerOutcome(
                benchmark="x", version=COPY, wall_s=1.0, entry_bytes=b"abc"
            )
        )
        with pytest.raises(WireProtocolError):
            decode_result(data[: len(data) // 2])

    def test_task_with_wrong_shape_system_rejected(self):
        payload = json.loads(encode_task(_worker_task()))
        payload["system"] = ["not", "an", "object"]
        with pytest.raises(WireProtocolError):
            decode_task(json.dumps(payload).encode())


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
        local, lm = _run(
            _tasks(), cache=ResultCache(tmp_path / "a"), backend="local"
        )
        remote, rm = _run(
            _tasks(), cache=ResultCache(tmp_path / "b"), backend="subprocess"
        )
        assert set(local) == set(remote) and len(local) == 4
        for key, result in local.items():
            assert results_identical(result, remote[key])
        assert not lm.failures and not rm.failures
        assert sum(rm.host_launched.values()) == 4

    def test_injected_kill_is_structured_and_needs_no_recycle(self, tmp_path):
        with injected_faults(
            {"rodinia/kmeans:copy": FaultRule("kill")}, counter_dir=tmp_path
        ):
            results, metrics = _run(
                _tasks(),
                backend="subprocess",
                policy=_fast(max_retries=1),
            )
        assert len(results) == 3
        [failure] = metrics.failures
        assert failure.benchmark == "rodinia/kmeans"
        assert failure.error_type == "WorkerCrash"
        assert failure.worker_fate == FATE_CRASHED
        assert failure.host  # crashed children still carry host attribution
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
                policy=_fast(max_retries=0),
            )
        assert len(results) == 3
        [failure] = metrics.failures
        assert failure.error_type == "FaultInjected"
        assert failure.worker_fate == FATE_ALIVE
        assert failure.host

    def test_warm_cache_synchronization(self, tmp_path):
        cache = ResultCache(tmp_path / "coord")
        _, first = _run(_tasks(), cache=cache, backend="subprocess")
        assert first.launched == 4 and len(cache) == 4
        # Second pass: the coordinator's cache was filled by *remote*
        # work, so nothing launches at all.
        _, second = _run(_tasks(), cache=cache, backend="subprocess")
        assert second.launched == 0
        assert second.cache_hits == 4

    def test_worker_side_cache_hits_are_absorbed(self, tmp_path):
        worker_cache = tmp_path / "worker"
        backend = SubprocessBackend(worker_cache_dir=str(worker_cache))
        _, first = _run(
            _tasks(), cache=ResultCache(tmp_path / "a"), backend=backend
        )
        assert first.remote_cache_hits == 0
        # Fresh coordinator cache, warm worker cache: every task is a
        # *worker-side* hit whose entry bytes the coordinator absorbs.
        fresh = ResultCache(tmp_path / "b")
        backend2 = SubprocessBackend(worker_cache_dir=str(worker_cache))
        results, second = _run(_tasks(), cache=fresh, backend=backend2)
        assert len(results) == 4
        assert second.remote_cache_hits == 4
        assert len(fresh) == 4

    def test_corrupt_worker_output_is_a_structured_failure(self):
        backend = SubprocessBackend(
            worker_cmd=[
                sys.executable,
                "-c",
                "import sys; sys.stdin.buffer.read(); "
                "sys.stdout.write('{not json')",
            ]
        )
        results, metrics = _run(
            _tasks(("lonestar/bfs",)),
            backend=backend,
            policy=_fast(max_retries=0),
        )
        assert results == {}
        assert len(metrics.failures) == 2
        for failure in metrics.failures:
            assert failure.error_type == "WireProtocolError"
            assert failure.worker_fate == FATE_ALIVE


class TestRecycleBudget:
    """Satellite bugfix: task-timeout pool teardowns draw on the same
    bounded recycle budget as pool breaks (they previously recycled the
    pool without ever counting against ``max_pool_rebuilds``)."""

    def test_timeout_recycles_are_bounded(self, tmp_path):
        policy = _fast(
            max_retries=4, task_timeout_s=0.75, max_pool_rebuilds=1
        )
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
        assert metrics.pool_rebuilds <= policy.max_pool_rebuilds


class TestSerialBackoffHonored:
    """Satellite bugfix: a task that degrades out of the pool mid-retry
    keeps its pending backoff instead of being retried immediately."""

    def test_degraded_serial_honors_pending_backoff(
        self, tmp_path, monkeypatch
    ):
        recorded = []
        monkeypatch.setattr(parallel_mod, "_sleep", recorded.append)
        with injected_faults(
            {"rodinia/kmeans:copy": FaultRule("kill", times=1)},
            counter_dir=tmp_path,
        ):
            results, metrics = _run(
                _tasks(),
                jobs=2,
                policy=_fast(
                    max_retries=2, backoff_base_s=2.0, max_pool_rebuilds=0
                ),
            )
        assert len(results) == 4
        assert not metrics.failures
        # The pool broke, charged the in-flight tasks a ~2s backoff, and
        # degraded to serial — which must observe that backoff.
        assert any(s >= 0.5 for s in recorded)
