"""Pluggable executor backends: reply format, factory, and end-to-end runs.

The contract under test (docs/SWEEPS.md): every backend receives the same
pickled :class:`WorkerTask` and produces results *identical* to the
in-process pool, worker failures surface as the same structured
:class:`TaskFailure` records local ones do, a worker's reply carries its
result as the cache entry under the task's key (damaged or mis-keyed
entries are wire-protocol failures), and the coordinator alone stores
each fresh result in the result cache.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

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
    create_backend,
)
from repro.experiments.executors.subproc import WORKER_MODULE
from repro.experiments.executors.wire import (
    RESULT_SCHEMA,
    decode_result,
    encode_error,
    encode_outcome,
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
from repro.experiments.remote_worker import EXIT_BAD_TASK
from repro.sim.engine import SimOptions, simulate
from repro.sim.resultcache import ResultCache, encode_entry
from repro.sim.serialize import results_identical
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import get
from repro.workloads.spec import BenchmarkSpec

from tests.conftest import TINY_SCALE, build_offload_pipeline
from tests.test_resultcache_format import _damaged

NAMES = ("lonestar/bfs", "rodinia/kmeans")
SCALE = 1 / 512
KEY = "ab" + "0" * 62


@pytest.fixture(scope="module")
def result():
    options = SimOptions(scale=TINY_SCALE, seed=3)
    return simulate(build_offload_pipeline(), discrete_gpu_system(), options)


def _outcome(result, **overrides) -> WorkerOutcome:
    fields = dict(wall_s=0.25, result=result)
    fields.update(overrides)
    return WorkerOutcome(**fields)


def _frame(header: bytes, body: bytes = b"") -> bytes:
    """A reply as documented: uint32 header length, header, body."""
    return struct.pack("<I", len(header)) + header + body


def _split(reply: bytes):
    """``(header dict, body bytes)`` of a reply, read as documented."""
    (size,) = struct.unpack_from("<I", reply)
    return json.loads(reply[4 : 4 + size]), reply[4 + size :]


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


class TestWireFormat:
    def test_error_document_golden(self, golden_json):
        payload, body = _split(encode_error("ValueError", "boom"))
        assert body == b""
        golden_json("executors/error_result", payload)

    def test_outcome_entry_bytes_round_trip(self, result):
        """The reply body is the result's cache entry under the task's key,
        byte for byte, and decodes back to the outcome."""
        data = encode_outcome(_outcome(result, memo_hits=3, memo_misses=1), KEY)
        header, body = _split(data)
        assert header == {
            "schema": RESULT_SCHEMA,
            "ok": True,
            "memo_hits": 3,
            "memo_misses": 1,
        }
        assert body == encode_entry(KEY, result, sim_wall_s=0.25)
        decoded = decode_result(data, KEY)
        assert decoded.wall_s == 0.25
        assert (decoded.memo_hits, decoded.memo_misses) == (3, 1)
        assert results_identical(decoded.result, result)

    def test_outcome_result_round_trip(self):
        results, _ = _run(_tasks(("lonestar/bfs",)), jobs=1)
        result = results[("lonestar/bfs", COPY)]
        decoded = decode_result(
            encode_outcome(_outcome(result, wall_s=0.5), KEY), KEY
        )
        assert results_identical(decoded.result, result)

    def test_error_reply_decodes_to_remote_task_error(self):
        data = encode_error("KeyError", "missing")
        with pytest.raises(RemoteTaskError) as excinfo:
            decode_result(data, KEY)
        assert excinfo.value.error_type == "KeyError"
        assert excinfo.value.message == "missing"

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"{not json",
            b'"a string"',
            b'{"schema": "somebody.else/v9"}',
            b'{"schema": "repro.executor.result/v3", "ok": true}',
            b'{"schema": "repro.executor.result/v3", "ok": true, '
            b'"memo_hits": 0, "memo_misses": 0}',
        ],
    )
    def test_malformed_replies_raise_wire_protocol_error(self, data):
        """Each header, framed with no result entry behind it."""
        with pytest.raises(WireProtocolError):
            decode_result(_frame(data), KEY)

    def test_truncated_reply_raises_wire_protocol_error(self, result):
        data = encode_outcome(_outcome(result), KEY)
        header_end = 4 + struct.unpack_from("<I", data)[0]
        for cut in (2, header_end - 1, (header_end + len(data)) // 2, len(data) - 1):
            with pytest.raises(WireProtocolError):
                decode_result(data[:cut], KEY)

    def test_damaged_entries_raise_wire_protocol_error(self, result):
        """The cache format's damage catalogue, one reply body each."""
        data = encode_outcome(_outcome(result), KEY)
        header_end = 4 + struct.unpack_from("<I", data)[0]
        cases = _damaged(data[header_end:])
        assert len(cases) > 20
        for label, bad in cases:
            try:
                decode_result(data[:header_end] + bad, KEY)
            except WireProtocolError:
                continue
            pytest.fail(f"a reply with a damaged entry decoded: {label}")

    def test_entry_of_another_task_raises_wire_protocol_error(self, result):
        data = encode_outcome(_outcome(result), KEY)
        with pytest.raises(WireProtocolError):
            decode_result(data, "cd" + "0" * 62)


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
                policy=_fast(max_retries=1),
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
                policy=_fast(max_retries=0),
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

    def test_reply_keyed_to_another_task_is_a_structured_failure(self):
        """The launcher thread checks each reply against its own task's
        cache key: a real result entry keyed otherwise is refused."""
        backend = SubprocessBackend(
            worker_cmd=[
                sys.executable,
                "-c",
                "import dataclasses, pickle, sys\n"
                "from repro.experiments.remote_worker import run_task\n"
                "task = pickle.loads(sys.stdin.buffer.read())\n"
                "task = dataclasses.replace(task, cache_key='0' * 64)\n"
                "sys.stdout.buffer.write(run_task(task))\n",
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

    @pytest.mark.parametrize(
        "stdin",
        [b"", b"{not a pickle", pickle.dumps({"benchmark": "lonestar/bfs"})],
        ids=["empty", "not-pickle", "not-a-task"],
    )
    def test_worker_without_a_task_exits_65(self, stdin):
        proc = subprocess.run(
            [sys.executable, "-m", WORKER_MODULE],
            input=stdin,
            capture_output=True,
            env=SubprocessBackend()._child_env(),
            timeout=120,
        )
        assert proc.returncode == EXIT_BAD_TASK == 65, proc.stderr
        assert proc.stdout == b""


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
