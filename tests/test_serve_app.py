"""End-to-end serve API tests: real sockets against an in-process server.

Each test boots a :class:`~repro.serve.client.ServerThread` (ephemeral
port, throwaway cache directory, serial in-parent sweeps unless the test
needs a pool) and drives it with the :class:`ServeClient`.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import parallel
from repro.experiments.advisor import advise
from repro.experiments.runner import SweepRunner
from repro.serve import ServeConfig, ServeHttpError, ServerThread
from repro.serve import app as app_module
from repro.sim.engine import SimOptions
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import get

KMEANS = "rodinia/kmeans"
BFS = "lonestar/bfs"
SPMV = "parboil/spmv"
#: Small enough that a benchmark pair simulates in tens of milliseconds.
SCALE = 1 / 128


def _config(tmp_path, **overrides) -> ServeConfig:
    overrides.setdefault("port", 0)
    overrides.setdefault("jobs", 1)
    overrides.setdefault("concurrency", 2)
    overrides.setdefault("cache_dir", tmp_path / "cache")
    overrides.setdefault("default_scale", SCALE)
    return ServeConfig(**overrides)


def _sweep(benchmarks=(KMEANS,), **overrides):
    body = {"kind": "sweep", "benchmarks": sorted(benchmarks), "scale": SCALE}
    body.update(overrides)
    return body


class TestLifecycleAndHealth:
    def test_health(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            health = server.client().health()
        assert health["schema"] == "repro.serve.health/v1"
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["pool_jobs"] == 1
        assert health["queue_depth"] == 0
        assert health["uptime_s"] >= 0

    def test_ephemeral_port_is_bound(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            assert server.port not in (None, 0)

    def test_ipv6_host_is_served(self, tmp_path):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        with ServerThread(_config(tmp_path, host="::1")) as server:
            assert server.client().health()["status"] == "ok"

    def test_http_shutdown_stops_the_server(self, tmp_path):
        server = ServerThread(_config(tmp_path))
        server.start()
        reply = server.client().shutdown()
        assert reply == {"status": "shutting-down"}
        server._thread.join(10.0)
        assert not server._thread.is_alive()
        server._thread = None  # already joined; stop() would be a no-op

    def test_graceful_shutdown_leaves_no_pool_workers(self, tmp_path):
        """After running a real multi-process sweep, teardown must not
        leave orphaned pool processes behind."""
        with ServerThread(_config(tmp_path, jobs=2)) as server:
            client = server.client()
            final = client.run(_sweep((KMEANS, BFS)), timeout_s=120)
            assert final["status"] == "done"
        for _ in range(50):  # reaping is asynchronous on some platforms
            children = multiprocessing.active_children()
            if not children:
                break
            for child in children:
                child.join(0.1)
        assert multiprocessing.active_children() == []


class TestJobs:
    def test_submit_status_result(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            accepted = client.submit(_sweep())
            assert accepted["schema"] == "repro.serve.job/v3"
            assert accepted["status"] in ("queued", "running")
            assert accepted["coalesced"] is False
            assert accepted["runs"] == 2
            assert "result" not in accepted
            final = client.wait_job(accepted["id"], timeout_s=60)
            listing = client._checked("GET", "/v1/jobs")
        assert final["status"] == "done"
        assert final["content_hash"] == accepted["content_hash"]
        assert final["wall_s"] >= 0
        result = final["result"]
        assert sorted(result["runs"]) == [
            f"{KMEANS}:copy",
            f"{KMEANS}:limited-copy",
        ]
        for run in result["runs"].values():
            assert run["roi_s"] > 0
            assert run["violations"] == 0
        assert result["failures"] == []
        assert result["metrics"]["launched"] == 2
        ids = [job["id"] for job in listing["jobs"]]
        assert accepted["id"] in ids

    def test_simulate_job_carries_summaries(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            body = {"kind": "simulate", "benchmark": KMEANS, "version": "copy"}
            final = client.run(body, timeout_s=60)
        assert final["status"] == "done"
        (run,) = final["result"]["runs"].values()
        assert "summary" in run and run["summary"]

    def test_advise_job_renders_advice(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            body = {"kind": "advise", "benchmark": KMEANS, "scale": SCALE}
            final = client.run(body, timeout_s=120)
        assert final["status"] == "done"
        assert len(final["result"]["runs"]) == 2
        advice = final["result"]["advice"]
        assert isinstance(advice, str) and KMEANS in advice

    def test_cache_less_advise_job_simulates_its_pair_once(
        self, tmp_path, monkeypatch
    ):
        """The advice ranks the job's own results: without a cache the job
        simulates each version once, and the text is the one the advisor
        renders through a runner of its own."""
        calls = []
        simulate = parallel.simulate

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(parallel, "simulate", counted)
        with ServerThread(_config(tmp_path, no_cache=True)) as server:
            body = {"kind": "advise", "benchmark": KMEANS, "scale": SCALE}
            final = server.client().run(body, timeout_s=120)
        assert final["status"] == "done"
        assert len(calls) == 2
        monkeypatch.undo()
        runner = SweepRunner(options=SimOptions(scale=SCALE))
        assert final["result"]["advice"] == advise(get(KMEANS), runner).render()

    def test_default_scale_applies(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            body = {"kind": "sweep", "benchmarks": [KMEANS]}  # no scale
            accepted = client.submit(body)
        assert accepted["job"]["scale"] == SCALE


class TestDedupAndCache:
    def test_warm_repeat_answers_from_cache(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            cold = client.run(_sweep(), timeout_s=60)
            warm = client.run(_sweep(), timeout_s=60)
            stats = client.cache_stats()
        assert cold["id"] != warm["id"]  # terminal hash released, new job
        assert cold["result"]["metrics"]["launched"] == 2
        assert warm["result"]["metrics"]["launched"] == 0
        assert warm["result"]["metrics"]["cache_hits"] == 2
        assert stats["dedup"]["computed_runs"] == 2
        assert stats["dedup"]["warm_runs"] == 2
        assert stats["enabled"] is True
        assert stats["entries"] == 2

    def test_concurrent_duplicates_coalesce_to_one_job(self, tmp_path):
        """The acceptance scenario: many identical in-flight submissions
        collapse onto one job and one computation.  A blocker job keeps
        the single worker busy so the duplicates deterministically arrive
        while their job is still queued."""
        duplicates = 24
        config = _config(tmp_path, concurrency=1)
        with ServerThread(config) as server:
            client = server.client()
            blocker = client.submit(_sweep((BFS,), seed=99))
            with ThreadPoolExecutor(max_workers=duplicates) as pool:
                replies = list(
                    pool.map(lambda _: client.submit(_sweep()), range(duplicates))
                )
            ids = {reply["id"] for reply in replies}
            final = client.wait_job(ids.pop(), timeout_s=120)
            assert not ids, "duplicates created more than one job"
            client.wait_job(blocker["id"], timeout_s=120)
            stats = client.cache_stats()
        coalesced = [reply["coalesced"] for reply in replies]
        assert coalesced.count(False) == 1
        assert coalesced.count(True) == duplicates - 1
        assert final["status"] == "done"
        assert final["submissions"] == duplicates
        dedup = stats["dedup"]
        assert dedup["submitted"] == duplicates + 1
        assert dedup["coalesced"] == duplicates - 1
        assert dedup["jobs_created"] == 2  # blocker + the one shared job
        # One blocker pair + one shared pair: 24 duplicate submissions
        # cost exactly one computation.
        assert dedup["computed_runs"] == 4

    def test_duplicate_storm_computes_each_hash_once(self, tmp_path):
        """A shuffled storm of duplicate and distinct sweep jobs against
        four job executors computes each content hash exactly once, and
        warm repeats of the hot job compute nothing."""
        distinct, duplicates, warm_repeats = 20, 180, 10
        # Seeds 0..19 are the distinct jobs; every duplicate replays the
        # hot seed-0 job.
        storm = [_sweep(seed=seed) for seed in range(distinct)]
        storm += [_sweep(seed=0)] * duplicates
        random.Random(0).shuffle(storm)
        with ServerThread(_config(tmp_path, concurrency=4)) as server:
            client = server.client()

            def run(body):
                return client.run(body, timeout_s=300)

            with ThreadPoolExecutor(max_workers=32) as pool:
                cold = list(pool.map(run, storm))
                after_storm = client.cache_stats()["dedup"]
                warm = list(pool.map(run, [_sweep(seed=0)] * warm_repeats))
                after_warm = client.cache_stats()["dedup"]
        assert {final["status"] for final in cold + warm} == {"done"}
        assert after_storm["submitted"] == distinct + duplicates
        # Two versions per job: one computation per content hash.
        assert after_storm["computed_runs"] == 2 * distinct
        assert after_warm["submitted"] == distinct + duplicates + warm_repeats
        assert after_warm["computed_runs"] == after_storm["computed_runs"]
        assert all(final["result"]["metrics"]["launched"] == 0 for final in warm)


class TestEvents:
    def test_sse_stream_reaches_terminal(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            accepted = client.submit(_sweep((KMEANS, BFS)))
            events = client.events(accepted["id"], timeout_s=60)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "started"
        assert kinds[-1] == "finished"
        assert "progress" in kinds
        assert [event["seq"] for event in events] == list(range(len(events)))
        progress = [e for e in events if e["event"] == "progress"]
        assert progress[-1]["completed"] == progress[-1]["total"] == 4
        assert events[-1]["status"] == "done"

    def test_progress_per_task_and_once_when_warm(self, tmp_path):
        """A job is one sweep: with jobs=1 each of its six tasks publishes
        its own progress event before ``finished``; a warm repeat, settled
        by the cache pass, publishes exactly one."""
        body = _sweep((KMEANS, BFS, SPMV))
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            histories = []
            for _ in range(2):
                final = client.run(body, timeout_s=120)
                assert final["status"] == "done"
                histories.append(client.events(final["id"], timeout_s=10))
            cold, warm = histories
        for events in (cold, warm):
            assert [event["seq"] for event in events] == list(range(len(events)))
        assert [event["event"] for event in cold] == (
            ["started"] + ["progress"] * 6 + ["finished"]
        )
        assert [event["completed"] for event in cold[1:-1]] == [1, 2, 3, 4, 5, 6]
        assert {event["total"] for event in cold[1:-1]} == {6}
        assert cold[-2]["launched"] == 6
        assert [event["event"] for event in warm] == [
            "started",
            "progress",
            "finished",
        ]
        assert warm[1]["completed"] == warm[1]["total"] == 6
        assert warm[1]["cache_hits"] == 6

    def test_sse_after_terminal_replays_history(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            final = client.run(_sweep(), timeout_s=60)
            events = client.events(final["id"], timeout_s=10)
        assert final["events"] == len(events)
        assert events[-1]["event"] == "finished"

    def test_wait_job_timeout_bounds_the_whole_wait(self, tmp_path, monkeypatch):
        """Keepalives every 50 ms do not stretch ``wait_job``'s bound."""
        monkeypatch.setattr(app_module, "SSE_KEEPALIVE_S", 0.05)
        with injected_faults({f"{KMEANS}:copy": FaultRule("hang", hang_s=1.5)}):
            with ServerThread(_config(tmp_path)) as server:
                client = server.client()
                accepted = client.submit(_sweep())
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.wait_job(accepted["id"], timeout_s=0.3)
                waited = time.monotonic() - start
        assert waited < 1.0

    def test_sse_unknown_job_is_404(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            with pytest.raises(ServeHttpError) as excinfo:
                client.events("job-999999", timeout_s=10)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["code"] == "unknown-job"


class TestMetricsEndpoint:
    def test_v3_payload_is_schema_and_dedup_only(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            client.run(_sweep(), timeout_s=60)
            client.health()
            metrics = client.metrics()
        assert sorted(metrics) == ["dedup", "schema"]
        assert metrics["schema"] == "repro.serve.metrics/v3"
        assert sorted(metrics["dedup"]) == [
            "coalesced",
            "computed_runs",
            "failed_runs",
            "jobs_created",
            "submitted",
            "warm_runs",
        ]
        assert metrics["dedup"]["computed_runs"] == 2


class TestHttpErrors:
    """Wire-level 4xx behaviour, with golden payloads for the stable ones."""

    @staticmethod
    def _status_and_payload(server, method, path, body=None):
        return server.client().request(method, path, body)

    def test_bad_json_golden(self, tmp_path, golden_json):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            raw = b"{not json"
            with socket.create_connection((client.host, client.port)) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                    + raw
                )
                data = b"".join(iter(lambda: sock.recv(65536), b""))
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        golden_json("serve/bad_json", {"status": status, **json.loads(body)})

    def test_unknown_route_golden(self, tmp_path, golden_json):
        with ServerThread(_config(tmp_path)) as server:
            status, payload = self._status_and_payload(
                server, "GET", "/v1/sweeps"
            )
        golden_json("serve/unknown_route", {"status": status, **payload})

    def test_method_not_allowed_golden(self, tmp_path, golden_json):
        with ServerThread(_config(tmp_path)) as server:
            status, payload = self._status_and_payload(
                server, "DELETE", "/health"
            )
        golden_json("serve/method_not_allowed", {"status": status, **payload})

    def test_unknown_job_golden(self, tmp_path, golden_json):
        with ServerThread(_config(tmp_path)) as server:
            status, payload = self._status_and_payload(
                server, "GET", "/v1/jobs/job-999999"
            )
        golden_json("serve/unknown_job", {"status": status, **payload})

    def test_body_too_large_golden(self, tmp_path, golden_json):
        config = _config(tmp_path, max_body_bytes=64)
        oversized = {"kind": "sweep", "benchmarks": ["x" * 80]}
        with ServerThread(config) as server:
            status, payload = self._status_and_payload(
                server, "POST", "/v1/jobs", oversized
            )
        assert status == 413
        assert payload["code"] == "body-too-large"
        golden_json("serve/body_too_large", {"status": status, **payload})

    def test_validation_errors_reach_the_wire(self, tmp_path):
        cases = [
            ({"kind": "sweep", "benchmark": KMEANS}, 400, "invalid-job"),
            (
                {"kind": "sweep", "benchmarks": ["rodinia/nope"]},
                404,
                "unknown-benchmark",
            ),
            (
                {"kind": "simulate", "benchmark": "lonestar/bfs_atomic"},
                422,
                "not-simulatable",
            ),
            ({"kind": "sweep", "benchmarks": [KMEANS], "engine": "fast"}, 400, "invalid-job"),
        ]
        with ServerThread(_config(tmp_path)) as server:
            for body, expected_status, expected_code in cases:
                status, payload = self._status_and_payload(
                    server, "POST", "/v1/jobs", body
                )
                assert status == expected_status, body
                assert payload["code"] == expected_code, body
                assert payload["schema"] == "repro.serve.error/v1"

    def test_no_cache_mode_still_serves(self, tmp_path):
        config = _config(tmp_path, no_cache=True)
        with ServerThread(config) as server:
            client = server.client()
            final = client.run(_sweep(), timeout_s=60)
            stats = client.cache_stats()
        assert final["status"] == "done"
        assert stats["enabled"] is False
        assert "entries" not in stats
