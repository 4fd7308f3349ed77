"""The asyncio HTTP/JSON front end of the synthesis service.

A deliberately small HTTP/1.1 server built directly on
``asyncio.start_server`` — the repository is dependency-free, so there is
no web framework underneath, just a request parser, a route table and
chunked responses.  Endpoints:

=====================  ======================================================
``POST /jobs``          submit a sweep (JSON body, see
                        :meth:`repro.service.jobs.JobSpec.from_payload`);
                        returns ``202`` with the job id.  Rate limited per
                        client (``X-Client-Id`` header or peer address).
``GET /jobs``           summaries of every job.
``GET /jobs/<id>``      status, counters and current Pareto fronts.
``GET /jobs/<id>/stream``  chunked stream of outcome events — one JSON
                        object per line, each carrying the job-so-far
                        Pareto front — ending with the ``done`` event.
``GET /metrics``        counters, latency quantiles (p50/p95), queue
                        gauges, cache hit/miss/eviction counters.
``GET /health``         liveness plus whether the server is draining.
``POST /shutdown``      graceful shutdown: stop accepting jobs, drain
                        in-flight ones (``{"drain": false}`` cancels
                        between configurations instead), then exit.
=====================  ======================================================

Connections are one-request (``Connection: close``), which keeps the
parser honest and sidesteps pipelining; streaming responses use
``Transfer-Encoding: chunked``.  :func:`start_in_thread` runs the whole
server on a background thread for tests, benchmarks and embedding.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.jobs import Job, JobManager, ServiceClosed
from repro.service.metrics import ServiceMetrics
from repro.service.ratelimit import RateLimiter

__all__ = ["SynthesisServer", "ServiceHandle", "start_in_thread"]

#: Upper bound on request bodies (custom Verilog sources included).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-connection inactivity budget while reading a request.
READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def threadsafe_listener(
    loop: asyncio.AbstractEventLoop, callback: Callable[[], None]
) -> Callable[[], None]:
    """A :meth:`Job.add_listener` callable that runs ``callback`` on ``loop``.

    The job calls its listeners on the worker thread, so the callback is
    handed over with ``call_soon_threadsafe``.  Once ``loop`` has closed
    nobody is left to wake and the ``RuntimeError`` is swallowed: a
    listener must never raise into the worker that appends events.
    """

    def listener() -> None:
        try:
            loop.call_soon_threadsafe(callback)
        except RuntimeError:
            pass

    return listener


class _HttpError(Exception):
    """Internal: aborts request handling with a status + message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class SynthesisServer:
    """Asyncio HTTP server over a :class:`~repro.service.jobs.JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        ratelimiter: Optional[RateLimiter] = None,
    ) -> None:
        self.manager = manager
        self.metrics: ServiceMetrics = manager.metrics
        self.ratelimiter = ratelimiter if ratelimiter is not None else RateLimiter(None)
        self.host = host
        self.port = port
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._drain = True
        self._draining = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (resolves an ephemeral port)."""
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=1024 * 1024
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self, drain: bool = True) -> None:
        """Flag the serve loop to shut down (threadsafe via ``call_soon``)."""
        self._drain = drain and self._drain
        self._draining = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> bool:
        """Serve until a shutdown request, then drain; returns drain success.

        The manager drains on an executor thread (its workers are plain
        threads), so status/metrics/stream requests keep being answered
        while in-flight jobs finish; only then does the listener close.
        """
        if self._server is None:
            await self.start()
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.manager.shutdown(drain=self._drain)
        )
        self._server.close()
        try:
            await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:  # a stuck client must not block exit
            pass
        return drained

    # -- request plumbing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.incr("http_requests")
        try:
            try:
                method, path, headers, body = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT
                )
            except asyncio.TimeoutError:
                return
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            try:
                await self._route(method, path, headers, body, writer)
            except _HttpError as exc:
                await self._send_json(writer, exc.status, {"error": exc.message})
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # one bad request must not kill the server
                self.metrics.incr("http_errors")
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "invalid Content-Length")
            if length < 0 or length > MAX_BODY_BYTES:
                raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            body = await reader.readexactly(length)
        return method, path, headers, body

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.split("?", 1)[0]
        if path == "/health":
            self._require(method, "GET")
            await self._send_json(
                writer,
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "accepting": self.manager.accepting,
                },
            )
        elif path == "/metrics":
            self._require(method, "GET")
            await self._send_json(writer, 200, self._metrics_payload())
        elif path == "/jobs" and method == "POST":
            await self._submit(headers, body, writer)
        elif path == "/jobs":
            self._require(method, "GET")
            await self._send_json(
                writer,
                200,
                {"jobs": [job.to_dict() for job in self.manager.jobs()]},
            )
        elif path.startswith("/jobs/"):
            await self._job_route(method, path, writer)
        elif path == "/shutdown":
            self._require(method, "POST")
            payload = self._parse_body(body) if body else {}
            drain = bool(payload.get("drain", True))
            self.request_shutdown(drain=drain)
            await self._send_json(
                writer, 202, {"shutting_down": True, "drain": drain}
            )
        else:
            raise _HttpError(404, f"no such endpoint: {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def _client_id(
        self, headers: Dict[str, str], writer: asyncio.StreamWriter
    ) -> str:
        if "x-client-id" in headers:
            return headers["x-client-id"]
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    async def _submit(
        self,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        client = self._client_id(headers, writer)
        if not self.ratelimiter.check(client):
            self.metrics.incr("http_rate_limited")
            raise _HttpError(429, "rate limit exceeded; retry later")
        payload = self._parse_body(body)
        try:
            job = self.manager.submit(payload)
        except ServiceClosed as exc:
            raise _HttpError(503, str(exc))
        except ValueError as exc:
            raise _HttpError(400, str(exc))
        await self._send_json(
            writer,
            202,
            {
                "id": job.id,
                "state": job.state,
                "num_tasks": job.num_tasks,
                "status_url": f"/jobs/{job.id}",
                "stream_url": f"/jobs/{job.id}/stream",
            },
        )

    async def _job_route(
        self, method: str, path: str, writer: asyncio.StreamWriter
    ) -> None:
        segments = path.strip("/").split("/")
        job = self.manager.get(segments[1])
        if job is None:
            raise _HttpError(404, f"no such job: {segments[1]}")
        if len(segments) == 2:
            self._require(method, "GET")
            await self._send_json(writer, 200, job.to_dict())
        elif len(segments) == 3 and segments[2] == "stream":
            self._require(method, "GET")
            await self._stream_job(job, writer)
        else:
            raise _HttpError(404, f"no such endpoint: {path}")

    async def _stream_job(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Chunked response: one JSON event per line until the job ends.

        The worker pushes: a job listener sets ``wake`` on this loop after
        every appended event, and the handler sleeps on ``wake`` in
        between.  ``wake`` is cleared before each read of the cursor, so
        an event appended while the handler writes is never missed.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        wake = asyncio.Event()
        listener = threadsafe_listener(asyncio.get_running_loop(), wake.set)
        job.add_listener(listener)
        try:
            cursor = 0
            finished = False
            while not finished:
                wake.clear()
                events, cursor = job.events_since(cursor)
                for event in events:
                    if event.get("type") == "done":
                        finished = True
                    chunk = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                    writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
                    writer.write(chunk + b"\r\n")
                if events:
                    await writer.drain()
                if not finished:
                    await wake.wait()
        finally:
            job.remove_listener(listener)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- metrics ---------------------------------------------------------------

    def _metrics_payload(self) -> Dict[str, Any]:
        tracked_clients, limiting = self.ratelimiter.snapshot()
        payload = {
            "uptime_seconds": time.time() - self.started_at,
            "draining": self._draining,
            **self.metrics.snapshot(),
            **self.manager.stats(),
            "ratelimit": {
                "enabled": limiting,
                "tracked_clients": tracked_clients,
                "rate": self.ratelimiter.rate,
                "burst": self.ratelimiter.burst if limiting else None,
            },
        }
        return payload


class ServiceHandle:
    """A server running on a background thread (tests, benchmarks, CLI).

    Exposes the resolved ``url``, the underlying ``server`` / ``manager``,
    and threadsafe ``request_shutdown()`` + ``join()``.
    """

    def __init__(self) -> None:
        self.server: Optional[SynthesisServer] = None
        self.manager: Optional[JobManager] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.thread: Optional[threading.Thread] = None
        self.drained: Optional[bool] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()

    @property
    def url(self) -> str:
        assert self.server is not None
        return f"http://{self.server.host}:{self.server.port}"

    def request_shutdown(self, drain: bool = True) -> None:
        """Ask the server to shut down (from any thread)."""
        if self.loop is not None and self.server is not None:
            self.loop.call_soon_threadsafe(self.server.request_shutdown, drain)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the server thread to exit; returns whether it did."""
        assert self.thread is not None
        self.thread.join(timeout)
        return not self.thread.is_alive()


def start_in_thread(
    manager: Optional[JobManager] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    ratelimiter: Optional[RateLimiter] = None,
    **manager_kwargs: Any,
) -> ServiceHandle:
    """Run a :class:`SynthesisServer` on a daemon thread and return its handle.

    Builds a :class:`JobManager` from ``manager_kwargs`` (``cache=``,
    ``workers=``, ...) unless one is passed in; blocks until the listener
    is bound, so ``handle.url`` is immediately usable.  Shut down with
    ``handle.request_shutdown()`` + ``handle.join()`` (or ``POST
    /shutdown``).
    """
    handle = ServiceHandle()
    handle.manager = manager if manager is not None else JobManager(**manager_kwargs)

    async def _main() -> None:
        server = SynthesisServer(
            handle.manager, host=host, port=port, ratelimiter=ratelimiter
        )
        await server.start()
        handle.server = server
        handle.loop = asyncio.get_running_loop()
        handle._ready.set()
        handle.drained = await server.serve_until_shutdown()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # surfaced via handle.error
            handle.error = exc
            handle._ready.set()

    handle.thread = threading.Thread(
        target=_runner, name="repro-service", daemon=True
    )
    handle.thread.start()
    handle._ready.wait()
    if handle.error is not None:
        raise RuntimeError("service failed to start") from handle.error
    return handle
