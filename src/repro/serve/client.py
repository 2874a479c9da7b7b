"""Asyncio client for the serve API plus the in-process test harness.

:class:`ServeClient` speaks the server's minimal HTTP/1.1 dialect (one
request per connection) straight over asyncio streams — no third-party
HTTP stack, so the tests run anywhere the server does.

:class:`ServerThread` boots a :class:`~repro.serve.app.ServeApp` on its
own event loop in a daemon thread (port 0 = pick a free port), which is
how the tests get a real server — real sockets, real concurrency —
without a subprocess.
"""

from __future__ import annotations

import asyncio
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
    """Minimal asyncio client: one connection per request, JSON bodies."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # -- raw request ---------------------------------------------------------

    async def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Any]:
        """One round-trip; returns ``(status, decoded JSON payload)``."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else b""
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n"
                f"\r\n"
            ).encode("latin-1")
            writer.write(head + payload)
            await writer.drain()
            status, _, body_bytes = await asyncio.wait_for(
                _read_response(reader), self.timeout_s
            )
            decoded = json.loads(body_bytes) if body_bytes else None
            return status, decoded
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _checked(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Any:
        status, payload = await self.request(method, path, body)
        if status >= 400:
            raise ServeHttpError(status, payload)
        return payload

    # -- conveniences --------------------------------------------------------

    async def health(self) -> Dict[str, Any]:
        return await self._checked("GET", "/health")

    async def cache_stats(self) -> Dict[str, Any]:
        return await self._checked("GET", "/v1/cache")

    async def metrics(self) -> Dict[str, Any]:
        return await self._checked("GET", "/v1/metrics")

    async def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        return await self._checked("POST", "/v1/jobs", job)

    async def job(self, job_id: str) -> Dict[str, Any]:
        return await self._checked("GET", f"/v1/jobs/{job_id}")

    async def shutdown(self) -> Dict[str, Any]:
        return await self._checked("POST", "/v1/shutdown")

    async def wait_job(
        self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.02
    ) -> Dict[str, Any]:
        """Poll a job until it reaches a terminal state; returns its body."""
        deadline = time.monotonic() + timeout_s
        while True:
            body = await self.job(job_id)
            if body["status"] in ("done", "partial", "failed"):
                return body
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {body['status']} after {timeout_s}s"
                )
            await asyncio.sleep(poll_s)

    async def run(
        self, job: Dict[str, Any], timeout_s: float = 60.0
    ) -> Dict[str, Any]:
        """Submit and wait for the job to reach a terminal state."""
        accepted = await self.submit(job)
        return await self.wait_job(accepted["id"], timeout_s=timeout_s)

    async def events(
        self, job_id: str, timeout_s: float = 60.0
    ) -> List[Dict[str, Any]]:
        """Consume the SSE stream of a job until the server closes it."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            head = (
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Accept: text/event-stream\r\n"
                f"Connection: close\r\n"
                f"\r\n"
            ).encode("latin-1")
            writer.write(head)
            await writer.drain()

            async def _consume() -> List[Dict[str, Any]]:
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                while True:  # headers
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                if status >= 400:
                    body = await reader.read()
                    raise ServeHttpError(
                        status, json.loads(body) if body else None
                    )
                events: List[Dict[str, Any]] = []
                while True:
                    line = await reader.readline()
                    if not line:
                        return events
                    text = line.decode("utf-8").rstrip("\r\n")
                    if text.startswith("data: "):
                        events.append(json.loads(text[len("data: ") :]))

            return await asyncio.wait_for(_consume(), timeout_s)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before replying")
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    else:
        body = await reader.read()
    return status, headers, body


class ServerThread:
    """A live server on a background thread; the in-process test harness.

    ::

        with ServerThread(ServeConfig(port=0, jobs=1)) as server:
            report = asyncio.run(server.client().health())

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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
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
        async def main() -> None:
            try:
                await self.app.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self.port = self.app.port
            self._ready.set()
            try:
                await self.app._shutdown.wait()
            finally:
                await self.app.stop()

        asyncio.run(main())

    def stop(self, join_timeout_s: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.app.request_shutdown)
        self._thread.join(join_timeout_s)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not shut down in time")
        self._thread = None

    def client(self, timeout_s: float = 60.0) -> ServeClient:
        if self.port is None:
            raise RuntimeError("server not started")
        return ServeClient(self.host, self.port, timeout_s=timeout_s)
