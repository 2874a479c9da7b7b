"""The asyncio HTTP/JSON server behind ``repro serve`` (docs/SERVING.md).

Stdlib only: requests are parsed straight off asyncio streams, responses
are JSON with ``Connection: close`` (one request per connection), and
progress streams are server-sent events over the same socket.

Endpoints::

    GET  /health                 liveness + job/queue counts
    POST /v1/jobs                submit a job (202 new, 200 coalesced)
    GET  /v1/jobs                list jobs (newest last)
    GET  /v1/jobs/<id>           status + result when terminal
    GET  /v1/jobs/<id>/events    SSE progress stream until terminal
    GET  /v1/cache               ResultCache stats + dedup counters
    GET  /v1/metrics             dedup counters + sweep-wide trace totals
    POST /v1/shutdown            graceful shutdown (drains running jobs)

Jobs are validated on submit (``repro lint`` preflight included),
deduplicated by content hash against in-flight work, and executed on a
bounded worker pool that dispatches through
:func:`repro.experiments.parallel.run_tasks_async` — the PR 5 fault
supervisor, so a crashed pool worker surfaces as a structured per-run
failure and a ``partial`` job status, never a hung request.  Warm
requests are answered from the shared content-addressed
:class:`~repro.sim.resultcache.ResultCache` without re-simulation.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments.parallel import (
    FaultPolicy,
    SweepMetrics,
    SweepTask,
    resolve_jobs,
    run_tasks_async,
)
from repro.sim.engine import ENGINE_VERSION, SimOptions
from repro.sim.observe.metrics import MetricsRegistry
from repro.sim.resultcache import ResultCache, default_cache_dir
from repro.serve.jobs import DONE, FAILED, PARTIAL, Job, JobStore
from repro.serve.schemas import (
    CACHE_SCHEMA,
    HEALTH_SCHEMA,
    KIND_ADVISE,
    KIND_SIMULATE,
    METRICS_SCHEMA,
    JobValidationError,
    error_payload,
    validate_job,
)
from repro.workloads import registry

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}

#: Default footprint scale for jobs that do not specify one: the same
#: 1/32 the CLI harness uses (see repro.experiments.runner).
DEFAULT_SERVE_SCALE = 1 / 32

#: SSE keep-alive interval while a job produces no events.
SSE_KEEPALIVE_S = 15.0


class _HttpError(Exception):
    """An error response decided during request parsing/dispatch."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one server process (each one a ``repro serve`` option,
    except ``max_body_bytes``)."""

    host: str = "127.0.0.1"
    port: int = 8372  # 0 = ephemeral (the in-process test harness)
    #: Process-pool width each job's sweep fans out over (0 = all cores).
    jobs: int = 0
    #: How many jobs execute concurrently (each with its own sweep pool).
    concurrency: int = 2
    cache_dir: Union[None, str, Path] = None  # None = default location
    no_cache: bool = False
    default_scale: float = DEFAULT_SERVE_SCALE
    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    #: Run the lint preflight on every submission.
    lint: bool = True
    max_body_bytes: int = 1 << 20
    #: Executor backend job sweeps fan out through ("local" or
    #: "subprocess" — see docs/SWEEPS.md); results are identical across
    #: them.
    backend: str = "local"


class ServeApp:
    """One server instance: job store, runners, and the HTTP front-end."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache: Optional[ResultCache] = (
            None
            if self.config.no_cache
            else ResultCache(self.config.cache_dir or default_cache_dir())
        )
        self.store = JobStore()
        self.metrics_registry = MetricsRegistry()
        self.discrete = discrete_gpu_system()
        self.heterogeneous = heterogeneous_processor()
        #: Dedup / work counters, served by ``/v1/cache`` and ``/v1/metrics``.
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "jobs_created": 0,
            "computed_runs": 0,
            "warm_runs": 0,
            "failed_runs": 0,
        }
        self._started_monotonic = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shutdown = asyncio.Event()
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (differs from config when it asked for 0)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.concurrency),
            thread_name_prefix="repro-serve",
        )
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"serve-worker-{i}")
            for i in range(max(1, self.config.concurrency))
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_monotonic = time.monotonic()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain running jobs, release
        every worker (no orphaned pool processes — run_tasks terminates
        its own pools, and the executor is joined)."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            for _ in self._workers:
                await self._queue.put(None)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def run_until_shutdown(self, on_ready: Optional[Any] = None) -> None:
        """``repro serve`` main: start, block on shutdown, stop cleanly.

        ``on_ready`` (a plain callable taking the app) fires once the
        socket is bound — the CLI uses it to announce the real port.
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # -- job execution -------------------------------------------------------

    def _chunk_size(self) -> int:
        """Tasks per run_tasks_async chunk (progress-event granularity):
        two pool-widths, at least four."""
        return max(4, 2 * resolve_jobs(self.config.jobs))

    def _options(self, job: Job) -> SimOptions:
        return SimOptions(
            scale=job.spec.scale,
            seed=job.spec.seed,
            engine_impl=job.spec.engine,
            stage_memo=job.spec.stage_memo,
        )

    def _policy(self) -> FaultPolicy:
        return FaultPolicy(
            max_retries=self.config.max_retries,
            task_timeout_s=self.config.task_timeout_s,
        )

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            job_id = await self._queue.get()
            if job_id is None:
                self._queue.task_done()
                return
            job = self.store.get(job_id)
            try:
                if job is not None:
                    await self._execute(job)
            except Exception as exc:  # a bug, not a task failure: the PR 5
                # supervisor already converts those into TaskFailures
                if job is not None and not job.terminal:
                    await self.store.finish(
                        job, FAILED, error=f"{type(exc).__name__}: {exc}"
                    )
            finally:
                self._queue.task_done()

    async def _execute(self, job: Job) -> None:
        await self.store.mark_running(job)
        options = self._options(job)
        policy = self._policy()
        specs = [registry.get(name) for name in job.spec.benchmarks]
        tasks = [
            SweepTask(spec, version)
            for spec in specs
            for version in job.spec.versions
        ]

        async def progress(done: int, total: int, metrics: SweepMetrics) -> None:
            await job.publish(
                "progress",
                completed=done,
                total=total,
                launched=metrics.launched,
                cache_hits=metrics.cache_hits,
                failures=metrics.failed,
                retries=metrics.retries,
            )

        results, metrics = await run_tasks_async(
            tasks,
            discrete=self.discrete,
            heterogeneous=self.heterogeneous,
            options=options,
            jobs=self.config.jobs,
            cache=self.cache,
            metrics_registry=self.metrics_registry,
            policy=policy,
            executor=self._executor,
            chunk_size=self._chunk_size(),
            progress=progress,
            backend=self.config.backend,
        )
        self.stats["computed_runs"] += metrics.launched
        self.stats["warm_runs"] += metrics.cache_hits
        self.stats["failed_runs"] += metrics.failed

        runs: Dict[str, Dict[str, Any]] = {}
        for (name, version), result in sorted(results.items()):
            entry: Dict[str, Any] = {
                "roi_s": result.roi_s,
                "system": result.system_kind,
                "violations": len(result.violations),
            }
            if job.spec.kind == KIND_SIMULATE:
                entry["summary"] = dict(result.summary())
            runs[f"{name}:{version}"] = entry
        failures = [
            {
                "benchmark": failure.benchmark,
                "version": failure.version,
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
                "worker_fate": failure.worker_fate,
            }
            for failure in metrics.failures
        ]
        payload: Dict[str, Any] = {
            "runs": runs,
            "failures": failures,
            "metrics": {
                "launched": metrics.launched,
                "cache_hits": metrics.cache_hits,
                "retries": metrics.retries,
                "pool_rebuilds": metrics.pool_rebuilds,
                "stage_memo_hits": metrics.stage_memo_hits,
                "wall_s": metrics.wall_s,
            },
        }

        if job.spec.kind == KIND_ADVISE and results:
            advice = await self._render_advice(job, options, policy)
            if advice is not None:
                payload["advice"] = advice

        if failures and not results:
            status = FAILED
        elif failures:
            status = PARTIAL  # the PR 5 partial-sweep contract, HTTP-shaped
        else:
            status = DONE
        await self.store.finish(job, status, result=payload)

    async def _render_advice(
        self, job: Job, options: SimOptions, policy: FaultPolicy
    ) -> Optional[str]:
        """Advisor text for an advise job; the pair it ranks was computed
        (and cached) by the sweep dispatch just above, so the runner the
        advisor drives replays warm results instead of re-simulating."""
        from repro.experiments import advisor
        from repro.experiments.runner import SweepError, SweepRunner

        name = job.spec.benchmarks[0]
        cache_root = self.cache.root if self.cache is not None else None

        def render() -> Optional[str]:
            runner = SweepRunner(
                options=options,
                parallel=1,
                cache_dir=cache_root,
                fault_policy=policy,
            )
            try:
                return advisor.advise_benchmark(name, runner).render()
            except SweepError:
                return None  # failures already reported on the job

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, render)

    # -- HTTP front-end ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            if method == "GET" and path.startswith("/v1/jobs/") and path.endswith(
                "/events"
            ):
                job_id = path[len("/v1/jobs/") : -len("/events")]
                await self._stream_events(writer, job_id)
            else:
                status, payload = await self._dispatch(method, path, body)
                self._write_json(writer, status, payload)
        except _HttpError as exc:
            try:
                self._write_json(writer, exc.status, exc.payload)
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except Exception as exc:  # never leak a traceback to the socket
            try:
                self._write_json(
                    writer,
                    500,
                    error_payload(
                        "internal-error", f"{type(exc).__name__}: {exc}"
                    ),
                )
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(
                400, error_payload("bad-request", "malformed request line")
            )
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(
                400, error_payload("bad-request", "bad Content-Length")
            ) from None
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                error_payload(
                    "body-too-large",
                    f"body of {length} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit",
                ),
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/health":
            return self._require(method, "GET", path), self._health()
        if path == "/v1/cache":
            return self._require(method, "GET", path), self._cache_stats()
        if path == "/v1/metrics":
            return self._require(method, "GET", path), self._metrics()
        if path == "/v1/jobs":
            if method == "POST":
                return await self._submit(body)
            self._require(method, "GET", path)
            return 200, {
                "jobs": [
                    job.describe(include_result=False)
                    for job in self.store.jobs()
                ]
            }
        if path == "/v1/shutdown":
            self._require(method, "POST", path)
            self.request_shutdown()
            return 200, {"status": "shutting-down"}
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET", path)
            job = self.store.get(path[len("/v1/jobs/") :])
            if job is None:
                raise _HttpError(
                    404,
                    error_payload(
                        "unknown-job", f"no job {path[len('/v1/jobs/'):]!r}"
                    ),
                )
            return 200, job.describe()
        raise _HttpError(
            404, error_payload("unknown-route", f"no route {path!r}")
        )

    @staticmethod
    def _require(method: str, expected: str, path: str) -> int:
        if method != expected:
            raise _HttpError(
                405,
                error_payload(
                    "method-not-allowed",
                    f"{path} only accepts {expected}",
                    {"allowed": [expected]},
                ),
            )
        return 200

    async def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(
                400, error_payload("bad-json", f"unparseable body: {exc}")
            ) from None
        try:
            spec = validate_job(
                parsed,
                lint=self.config.lint,
                default_scale=self.config.default_scale,
            )
        except JobValidationError as exc:
            raise _HttpError(exc.status, exc.payload()) from None
        job, coalesced = self.store.submit(spec)
        self.stats["submitted"] += 1
        if coalesced:
            self.stats["coalesced"] += 1
        else:
            self.stats["jobs_created"] += 1
            assert self._queue is not None
            await self._queue.put(job.id)
        response = job.describe(include_result=False)
        response["coalesced"] = coalesced
        return (200 if coalesced else 202), response

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        job = self.store.get(job_id)
        if job is None:
            self._write_json(
                writer,
                404,
                error_payload("unknown-job", f"no job {job_id!r}"),
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        seq = 0
        while True:
            events, terminal = await job.wait_events(
                seq, timeout=SSE_KEEPALIVE_S
            )
            for event in events:
                data = json.dumps(event, sort_keys=True)
                writer.write(f"data: {data}\n\n".encode("utf-8"))
            seq += len(events)
            if not events and not terminal:
                writer.write(b": keepalive\n\n")
            await writer.drain()
            if terminal and seq >= len(job.events):
                return

    # -- introspection payloads ----------------------------------------------

    def _health(self) -> Dict[str, Any]:
        return {
            "schema": HEALTH_SCHEMA,
            "status": "ok",
            "engine_version": ENGINE_VERSION,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "jobs": self.store.counts(),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "workers": max(1, self.config.concurrency),
            "pool_jobs": resolve_jobs(self.config.jobs),
        }

    def _cache_stats(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": CACHE_SCHEMA,
            "enabled": self.cache is not None,
            "dedup": dict(self.stats),
        }
        if self.cache is not None:
            payload["directory"] = str(self.cache.root)
            payload["entries"] = len(self.cache)
            payload["size_bytes"] = self.cache.size_bytes()
        return payload

    def _metrics(self) -> Dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA,
            "dedup": dict(self.stats),
            "sweep_totals": self.metrics_registry.totals(),
        }
