"""The HTTP/JSON server behind ``repro serve`` (docs/SERVING.md).

Stdlib only: a :class:`http.server.ThreadingHTTPServer` answers each
connection on its own daemon thread, responses are JSON with
``Connection: close`` (one request per connection), and progress streams
are server-sent events over the same socket.

Endpoints::

    GET  /health                 liveness + job/queue counts
    POST /v1/jobs                submit a job (202 new, 200 coalesced)
    GET  /v1/jobs                list jobs (newest last)
    GET  /v1/jobs/<id>           status + result when terminal
    GET  /v1/jobs/<id>/events    SSE progress stream until terminal
    GET  /v1/cache               ResultCache stats + dedup counters
    GET  /v1/metrics             dedup counters
    POST /v1/shutdown            graceful shutdown (drains running jobs)

Jobs are validated on submit (``repro lint`` preflight included),
deduplicated by content hash against in-flight work, and executed on a
bounded thread pool that runs each job as one
:func:`repro.experiments.parallel.run_tasks` call — the fault
supervisor, so a crashed pool worker surfaces as a structured per-run
failure and a ``partial`` job status, never a hung request.  Warm
requests are answered from the shared content-addressed
:class:`~repro.sim.resultcache.ResultCache` without re-simulation.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments.advisor import advise_pair
from repro.experiments.parallel import (
    COPY,
    LIMITED,
    FaultPolicy,
    SweepMetrics,
    SweepTask,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.runner import BenchmarkRun
from repro.sim.engine import ENGINE_VERSION, SimOptions
from repro.sim.resultcache import ResultCache, default_cache_dir
from repro.serve.jobs import DONE, FAILED, PARTIAL, QUEUED, Job, JobStore
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

#: Default footprint scale for jobs that do not specify one: the same
#: 1/32 the CLI harness uses (see repro.experiments.runner).
DEFAULT_SERVE_SCALE = 1 / 32

#: SSE keep-alive interval while a job produces no events.
SSE_KEEPALIVE_S = 15.0

#: Listen backlog: socketserver's default of 5 refuses a burst of clients.
LISTEN_BACKLOG = 128

#: How often the accept loop checks for shutdown; every stop waits out
#: one poll, so it is short.
POLL_INTERVAL_S = 0.05


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
    """One server instance: job store, job executor, and the HTTP front-end."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache: Optional[ResultCache] = (
            None
            if self.config.no_cache
            else ResultCache(self.config.cache_dir or default_cache_dir())
        )
        self.store = JobStore()
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
        self._stats_lock = threading.Lock()
        self._started_monotonic = 0.0
        self._server: Optional[_HttpServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shutdown = threading.Event()
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (differs from config when it asked for 0)."""
        if self._server is None:
            return self.config.port
        return self._server.server_address[1]

    def start(self) -> None:
        """Bind the socket and answer requests on a daemon thread."""
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.concurrency),
            thread_name_prefix="repro-serve",
        )
        self._server = _HttpServer(self)
        self._started_monotonic = time.monotonic()
        threading.Thread(
            target=self._server.serve_forever,
            args=(POLL_INTERVAL_S,),
            name="repro-serve-http",
            daemon=True,
        ).start()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain running jobs, release
        every worker (no orphaned pool processes — run_tasks terminates
        its own pools, and the executor is joined)."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def run_until_shutdown(self, on_ready: Optional[Any] = None) -> None:
        """``repro serve`` main: start, block on shutdown, stop cleanly.

        ``on_ready`` (a callable taking the app) fires once the socket is
        bound — the CLI uses it to announce the real port.
        """
        self.start()
        try:
            if on_ready is not None:
                on_ready(self)
            self._shutdown.wait()
        finally:
            self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                self.stats[name] += delta

    def _dedup(self) -> Dict[str, int]:
        with self._stats_lock:
            return dict(self.stats)

    # -- job execution -------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        try:
            self._execute(job)
        except Exception as exc:  # a bug, not a task failure: the fault
            # supervisor already converts those into TaskFailures
            if not job.terminal:
                self.store.finish(
                    job, FAILED, error=f"{type(exc).__name__}: {exc}"
                )

    def _execute(self, job: Job) -> None:
        self.store.mark_running(job)
        specs = [registry.get(name) for name in job.spec.benchmarks]
        tasks = [
            SweepTask(spec, version)
            for spec in specs
            for version in job.spec.versions
        ]

        def progress(metrics: SweepMetrics) -> None:
            job.publish(
                "progress",
                completed=metrics.launched + metrics.cache_hits + metrics.failed,
                total=metrics.total,
                launched=metrics.launched,
                cache_hits=metrics.cache_hits,
                failures=metrics.failed,
                retries=metrics.retries,
            )

        results, metrics = run_tasks(
            tasks,
            discrete=self.discrete,
            heterogeneous=self.heterogeneous,
            options=SimOptions(scale=job.spec.scale, seed=job.spec.seed),
            jobs=self.config.jobs,
            cache=self.cache,
            policy=FaultPolicy(
                max_retries=self.config.max_retries,
                task_timeout_s=self.config.task_timeout_s,
            ),
            backend=self.config.backend,
            progress=progress,
        )
        self._count(
            computed_runs=metrics.launched,
            warm_runs=metrics.cache_hits,
            failed_runs=metrics.failed,
        )

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

        if job.spec.kind == KIND_ADVISE and len(results) == 2:
            (name,) = job.spec.benchmarks
            pair = BenchmarkRun(
                registry.get(name), results[(name, COPY)], results[(name, LIMITED)]
            )
            payload["advice"] = advise_pair(pair, self.heterogeneous).render()

        if failures and not results:
            status = FAILED
        elif failures:
            status = PARTIAL  # the PR 5 partial-sweep contract, HTTP-shaped
        else:
            status = DONE
        self.store.finish(job, status, result=payload)

    # -- HTTP front-end ------------------------------------------------------

    def _dispatch(
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
                return self._submit(body)
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

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
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
        if coalesced:
            self._count(submitted=1, coalesced=1)
        else:
            self._count(submitted=1, jobs_created=1)
            assert self._executor is not None
            self._executor.submit(self._run_job, job)
        response = job.describe(include_result=False)
        response["coalesced"] = coalesced
        return (200 if coalesced else 202), response

    def _stream_events(self, handler: "_Handler", job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None:
            raise _HttpError(
                404, error_payload("unknown-job", f"no job {job_id!r}")
            )
        handler.send_response(200)
        handler.send_header("Content-Type", "text/event-stream")
        handler.send_header("Cache-Control", "no-cache")
        handler.send_header("Connection", "close")
        handler.end_headers()
        seq = 0
        while True:
            events, terminal = job.wait_events(seq, timeout=SSE_KEEPALIVE_S)
            frames = "".join(
                f"data: {json.dumps(event, sort_keys=True)}\n\n"
                for event in events
            )
            handler.wfile.write((frames or ": keepalive\n\n").encode("utf-8"))
            seq += len(events)
            if terminal:  # ``finished`` is the last event, already sent
                return

    # -- introspection payloads ----------------------------------------------

    def _health(self) -> Dict[str, Any]:
        counts = self.store.counts()
        return {
            "schema": HEALTH_SCHEMA,
            "status": "ok",
            "engine_version": ENGINE_VERSION,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "jobs": counts,
            "queue_depth": counts.get(QUEUED, 0),
            "workers": max(1, self.config.concurrency),
            "pool_jobs": resolve_jobs(self.config.jobs),
        }

    def _cache_stats(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": CACHE_SCHEMA,
            "enabled": self.cache is not None,
            "dedup": self._dedup(),
        }
        if self.cache is not None:
            payload["directory"] = str(self.cache.root)
            payload["entries"] = len(self.cache)
            payload["size_bytes"] = self.cache.size_bytes()
        return payload

    def _metrics(self) -> Dict[str, Any]:
        return {"schema": METRICS_SCHEMA, "dedup": self._dedup()}


class _HttpServer(ThreadingHTTPServer):
    """The listening socket of one :class:`ServeApp`."""

    request_queue_size = LISTEN_BACKLOG
    # stop() drains jobs, not connections: an idle or streaming client
    # must not hold up shutdown.
    block_on_close = False

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        if ":" in app.config.host:  # an IPv6 address such as ::1
            self.address_family = socket.AF_INET6
        super().__init__((app.config.host, app.config.port), _Handler)


class _Handler(BaseHTTPRequestHandler):
    """Hands every request, whatever its method, to the app's routes."""

    protocol_version = "HTTP/1.1"
    # A request line too malformed to name its version still gets a
    # status line in its reply.
    default_request_version = "HTTP/1.1"
    server: _HttpServer

    def __getattr__(self, name: str) -> Any:
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    def _handle(self) -> None:
        app = self.server.app
        method, path = self.command.upper(), self.path.split("?", 1)[0]
        try:
            body = self._read_body(app.config.max_body_bytes)
            if method == "GET" and path.startswith("/v1/jobs/") and path.endswith(
                "/events"
            ):
                app._stream_events(self, path[len("/v1/jobs/") : -len("/events")])
                return
            status, payload = app._dispatch(method, path, body)
        except _HttpError as exc:
            status, payload = exc.status, exc.payload
        except (ConnectionError, OSError):
            return  # client went away mid-request
        except Exception as exc:  # never leak a traceback to the socket
            status, payload = 500, error_payload(
                "internal-error", f"{type(exc).__name__}: {exc}"
            )
        try:
            self.send_json(status, payload)
        except (ConnectionError, OSError):
            pass

    def _read_body(self, limit: int) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            raise _HttpError(
                400, error_payload("bad-request", "bad Content-Length")
            ) from None
        if length > limit:
            raise _HttpError(
                413,
                error_payload(
                    "body-too-large",
                    f"body of {length} bytes exceeds the {limit}-byte limit",
                ),
            )
        return self.rfile.read(length) if length else b""

    def send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Malformed requests get the error body every other 4xx carries."""
        self.send_json(
            code, error_payload("bad-request", message or self.responses[code][0])
        )

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the service does not log its requests
