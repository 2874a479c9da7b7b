"""Client for the serve API plus the in-process test harness.

:class:`ServeClient` is a synchronous client over :mod:`http.client`
(one request per connection) — no third-party HTTP stack, so the tests
run anywhere the server does.

:class:`ServerThread` runs a :class:`~repro.serve.app.ServeApp` until
shutdown in a daemon thread (port 0 = pick a free port), which is how the
tests get a real server — real sockets, real concurrency — without a
subprocess.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.app import ServeApp, ServeConfig


class ServeHttpError(RuntimeError):
    """A non-2xx response, carrying the decoded error payload."""

    def __init__(self, status: int, payload: Any) -> None:
        code = payload.get("code") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status} ({code})")
        self.status = status
        self.payload = payload


class ServeClient:
    """Minimal client: one connection per request, JSON bodies."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # -- raw request ---------------------------------------------------------

    def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Any]:
        """One round-trip; returns ``(status, decoded JSON payload)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(
                method,
                path,
                body=json.dumps(body).encode("utf-8") if body is not None else None,
                headers={"Content-Type": "application/json", "Connection": "close"},
            )
            response = connection.getresponse()
            data = response.read()
            return response.status, json.loads(data) if data else None
        finally:
            connection.close()

    def _checked(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Any:
        status, payload = self.request(method, path, body)
        if status >= 400:
            raise ServeHttpError(status, payload)
        return payload

    # -- conveniences --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._checked("GET", "/health")

    def cache_stats(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/cache")

    def metrics(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/metrics")

    def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        return self._checked("POST", "/v1/jobs", job)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def shutdown(self) -> Dict[str, Any]:
        return self._checked("POST", "/v1/shutdown")

    def wait_job(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Block on a job's event stream until the server ends it after
        ``finished``, then return the job's terminal body.  ``timeout_s``
        bounds the whole wait, as in :meth:`events`."""
        self.events(job_id, timeout_s)
        return self.job(job_id)

    def run(
        self, job: Dict[str, Any], timeout_s: float = 60.0
    ) -> Dict[str, Any]:
        """Submit and wait for the job to reach a terminal state."""
        accepted = self.submit(job)
        return self.wait_job(accepted["id"], timeout_s=timeout_s)

    def events(
        self, job_id: str, timeout_s: float = 60.0
    ) -> List[Dict[str, Any]]:
        """Consume the SSE stream of a job until the server closes it.

        ``timeout_s`` bounds the whole stream, keepalives included, and
        raises ``TimeoutError`` once it passes.
        """
        deadline = time.monotonic() + timeout_s
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout_s
        )
        try:
            connection.request(
                "GET",
                f"/v1/jobs/{job_id}/events",
                headers={"Accept": "text/event-stream", "Connection": "close"},
            )
            sock = connection.sock  # getresponse() hands it to the response
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                raise ServeHttpError(
                    response.status, json.loads(data) if data else None
                )
            events = []
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"event stream of job {job_id} open after {timeout_s}s"
                    )
                sock.settimeout(remaining)
                line = response.readline()
                if not line:
                    return events
                if line.startswith(b"data: "):
                    events.append(json.loads(line[len(b"data: ") :]))
        finally:
            connection.close()


class ServerThread:
    """A live server on a background thread; the in-process test harness.

    ::

        with ServerThread(ServeConfig(port=0, jobs=1)) as server:
            report = server.client().health()

    ``stop()`` (or leaving the ``with`` block) performs the same graceful
    shutdown as ``POST /v1/shutdown``: running jobs drain, the executor
    joins, and no pool workers are left behind.
    """

    def __init__(
        self, config: Optional[ServeConfig] = None, startup_timeout_s: float = 10.0
    ) -> None:
        self.app = ServeApp(config or ServeConfig(port=0))
        self._startup_timeout_s = startup_timeout_s
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.host = self.app.config.host
        self.port: Optional[int] = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-main", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout_s):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error!r}")

    def _run(self) -> None:
        try:
            self.app.run_until_shutdown(on_ready=self._on_ready)
        except Exception as exc:
            if self._ready.is_set():
                raise
            self._error = exc  # reported by start(), e.g. a failed bind
            self._ready.set()

    def _on_ready(self, app: ServeApp) -> None:
        self.port = app.port
        self._ready.set()

    def stop(self, join_timeout_s: float = 30.0) -> None:
        if self._thread is None:
            return
        self.app.request_shutdown()
        self._thread.join(join_timeout_s)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not shut down in time")
        self._thread = None

    def client(self, timeout_s: float = 60.0) -> ServeClient:
        if self.port is None:
            raise RuntimeError("server not started")
        return ServeClient(self.host, self.port, timeout_s=timeout_s)
