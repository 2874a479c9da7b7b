"""End-to-end serve API tests: real sockets against an in-process server.

Each test boots a :class:`~repro.serve.client.ServerThread` (ephemeral
port, throwaway cache directory, serial in-parent sweeps unless the test
needs a pool) and drives it with the asyncio :class:`ServeClient`.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import random

import pytest

from repro.serve import ServeConfig, ServeHttpError, ServerThread

KMEANS = "rodinia/kmeans"
BFS = "lonestar/bfs"
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


def _run(coro):
    return asyncio.run(coro)


class TestLifecycleAndHealth:
    def test_health(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            health = _run(server.client().health())
        assert health["schema"] == "repro.serve.health/v1"
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["pool_jobs"] == 1
        assert health["queue_depth"] == 0
        assert health["uptime_s"] >= 0

    def test_ephemeral_port_is_bound(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            assert server.port not in (None, 0)

    def test_http_shutdown_stops_the_server(self, tmp_path):
        server = ServerThread(_config(tmp_path))
        server.start()
        reply = _run(server.client().shutdown())
        assert reply == {"status": "shutting-down"}
        server._thread.join(10.0)
        assert not server._thread.is_alive()
        server._thread = None  # already joined; stop() would be a no-op

    def test_graceful_shutdown_leaves_no_pool_workers(self, tmp_path):
        """After running a real multi-process sweep, teardown must not
        leave orphaned pool processes behind."""
        with ServerThread(_config(tmp_path, jobs=2)) as server:
            client = server.client()
            final = _run(client.run(_sweep((KMEANS, BFS)), timeout_s=120))
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

            async def scenario():
                accepted = await client.submit(_sweep())
                assert accepted["schema"] == "repro.serve.job/v2"
                assert accepted["status"] in ("queued", "running")
                assert accepted["coalesced"] is False
                assert accepted["runs"] == 2
                assert "result" not in accepted
                final = await client.wait_job(accepted["id"], timeout_s=60)
                listing = await client._checked("GET", "/v1/jobs")
                return accepted, final, listing

            accepted, final, listing = _run(scenario())
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
            final = _run(client.run(body, timeout_s=60))
        assert final["status"] == "done"
        (run,) = final["result"]["runs"].values()
        assert "summary" in run and run["summary"]

    def test_advise_job_renders_advice(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            body = {"kind": "advise", "benchmark": KMEANS, "scale": SCALE}
            final = _run(client.run(body, timeout_s=120))
        assert final["status"] == "done"
        assert len(final["result"]["runs"]) == 2
        advice = final["result"]["advice"]
        assert isinstance(advice, str) and KMEANS in advice

    def test_default_scale_applies(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            body = {"kind": "sweep", "benchmarks": [KMEANS]}  # no scale
            accepted = _run(client.submit(body))
        assert accepted["job"]["scale"] == SCALE


class TestDedupAndCache:
    def test_warm_repeat_answers_from_cache(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()

            async def scenario():
                cold = await client.run(_sweep(), timeout_s=60)
                warm = await client.run(_sweep(), timeout_s=60)
                stats = await client.cache_stats()
                return cold, warm, stats

            cold, warm, stats = _run(scenario())
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

            async def scenario():
                blocker = await client.submit(_sweep((BFS,), seed=99))
                replies = await asyncio.gather(
                    *(client.submit(_sweep()) for _ in range(duplicates))
                )
                ids = {reply["id"] for reply in replies}
                final = await client.wait_job(ids.pop(), timeout_s=120)
                assert not ids, "duplicates created more than one job"
                await client.wait_job(blocker["id"], timeout_s=120)
                stats = await client.cache_stats()
                return replies, final, stats

            replies, final, stats = _run(scenario())
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

            async def scenario():
                gate = asyncio.Semaphore(32)

                async def run(body):
                    async with gate:
                        return await client.run(body, timeout_s=300)

                cold = await asyncio.gather(*map(run, storm))
                after_storm = (await client.cache_stats())["dedup"]
                warm = await asyncio.gather(
                    *(run(_sweep(seed=0)) for _ in range(warm_repeats))
                )
                after_warm = (await client.cache_stats())["dedup"]
                return cold, warm, after_storm, after_warm

            cold, warm, after_storm, after_warm = _run(scenario())
        assert {final["status"] for final in cold + warm} == {"done"}
        assert after_storm["submitted"] == distinct + duplicates
        # Two versions per job: one computation per content hash.
        assert after_storm["computed_runs"] == 2 * distinct
        assert after_warm["submitted"] == distinct + duplicates + warm_repeats
        assert after_warm["computed_runs"] == after_storm["computed_runs"]
        assert all(final["result"]["metrics"]["launched"] == 0 for final in warm)

    def test_engine_knob_variants_coalesce(self, tmp_path):
        config = _config(tmp_path, concurrency=1)
        with ServerThread(config) as server:
            client = server.client()

            async def scenario():
                blocker = await client.submit(_sweep((BFS,), seed=99))
                first = await client.submit(_sweep())
                second = await client.submit(_sweep(engine="reference"))
                third = await client.submit(_sweep(stage_memo="off"))
                for reply in (blocker, first):
                    await client.wait_job(reply["id"], timeout_s=120)
                return first, second, third

            first, second, third = _run(scenario())
        assert second["id"] == first["id"]
        assert third["id"] == first["id"]
        assert second["coalesced"] and third["coalesced"]


class TestEvents:
    def test_sse_stream_reaches_terminal(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()

            async def scenario():
                accepted = await client.submit(_sweep((KMEANS, BFS)))
                return await client.events(accepted["id"], timeout_s=60)

            events = _run(scenario())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "started"
        assert kinds[-1] == "finished"
        assert "progress" in kinds
        assert [event["seq"] for event in events] == list(range(len(events)))
        progress = [e for e in events if e["event"] == "progress"]
        assert progress[-1]["completed"] == progress[-1]["total"] == 4
        assert events[-1]["status"] == "done"

    def test_sse_after_terminal_replays_history(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()

            async def scenario():
                final = await client.run(_sweep(), timeout_s=60)
                return final, await client.events(final["id"], timeout_s=10)

            final, events = _run(scenario())
        assert final["events"] == len(events)
        assert events[-1]["event"] == "finished"

    def test_sse_unknown_job_is_404(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()
            with pytest.raises(ServeHttpError) as excinfo:
                _run(client.events("job-999999", timeout_s=10))
        assert excinfo.value.status == 404
        assert excinfo.value.payload["code"] == "unknown-job"


class TestMetricsEndpoint:
    def test_dedup_counters_and_sweep_totals(self, tmp_path):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()

            async def scenario():
                await client.run(_sweep(), timeout_s=60)
                await client.health()
                return await client.metrics()

            metrics = _run(scenario())
        assert sorted(metrics) == ["dedup", "schema", "sweep_totals"]
        assert metrics["schema"] == "repro.serve.metrics/v2"
        assert metrics["dedup"]["computed_runs"] == 2
        assert metrics["sweep_totals"]["runs"] == 2


class TestHttpErrors:
    """Wire-level 4xx behaviour, with golden payloads for the stable ones."""

    @staticmethod
    def _status_and_payload(server, method, path, body=None):
        async def scenario():
            return await server.client().request(method, path, body)

        return _run(scenario())

    def test_bad_json_golden(self, tmp_path, golden_json):
        with ServerThread(_config(tmp_path)) as server:
            client = server.client()

            async def scenario():
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                raw = b"{not json"
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                    + raw
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                return data

            data = _run(scenario())
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

            async def scenario():
                final = await client.run(_sweep(), timeout_s=60)
                return final, await client.cache_stats()

            final, stats = _run(scenario())
        assert final["status"] == "done"
        assert stats["enabled"] is False
        assert "entries" not in stats
