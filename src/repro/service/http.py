"""Stdlib-only HTTP/1.1 JSON front end for the compile service -- the
one wire a job travels.

Two halves:

* a minimal asyncio HTTP server base (:class:`HttpServerBase`) with
  request parsing, keep-alive, and JSON responses -- shared by the
  gateway here and the blob store server in :mod:`repro.fleet.store`;
* the :class:`HttpGateway` itself, the one door to a
  :class:`~repro.service.pool.WorkerPool`: it parses and keys a job,
  answers a memory-tier hit on the event loop, joins an identical job
  already in flight (single-flight), refuses a job past its queue
  depth (``Busy``), and hands everything else to the pool on its
  executor threads.

Routes::

    POST /v1/jobs        submit one JobSpec (JSON body), wait, respond
    GET  /healthz        liveness + pipeline version
    GET  /metrics        service counters + the pool's cache snapshot
    POST /v1/shutdown    stop the server after responding

Failure mapping is structural, not ad hoc: job-level errors carry the
same ``{"type", "message", "code"}`` objects the CLI produces, and the
HTTP status is derived from that exit code via
:func:`repro.errors.http_status_for` (422 for compile/runtime failures,
400 for malformed requests, 503 + ``Retry-After`` for backpressure).
An exception no handler expected is a structured 500, never a dropped
connection.

The server deliberately avoids :mod:`http.server` (synchronous, one
thread per connection); requests ride one asyncio loop, and only a job
that is not a memory hit crosses to a thread.  The blocking client
side is :mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import json
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ReproError, error_body, http_status_for
from repro.harness.pipeline import PIPELINE_VERSION
from repro.service.jobs import JobResult, JobSpec
from repro.service.pool import WorkerPool

#: The bound on a request's header block; a body is bounded by what a
#: job may carry (``JobSpec.MAX_SOURCE_BYTES``).
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {200: "OK", 201: "Created", 204: "No Content",
            400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 411: "Length Required",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            500: "Internal Server Error", 501: "Not Implemented",
            503: "Service Unavailable"}


class HttpError(Exception):
    """A request that cannot be dispatched; rendered as a structured
    JSON error with the carried status."""

    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(message)
        self.status = status
        self.error_type = error_type

    def body(self) -> Dict[str, object]:
        return error_body(self.error_type, str(self),
                          2 if self.status < 500 else 6)


class HttpRequest:
    """One parsed request: method, path, headers, raw JSON body."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str,
                 headers: Dict[str, str], body: bytes,
                 keep_alive: bool):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

    def json(self) -> object:
        if not self.body:
            raise HttpError(400, "BadRequest", "request body is empty")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, "BadRequest",
                            f"request body is not JSON: {exc}") from None


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[HttpRequest]:
    """Parse one HTTP/1.1 request; None on a clean EOF between
    requests (the client closed a keep-alive connection)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "BadRequest", "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "PayloadTooLarge", "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "PayloadTooLarge", "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "BadRequest",
                        f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "BadRequest",
                            f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise HttpError(501, "NotImplemented",
                        "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "BadRequest",
                            "content-length is not an integer")
        if length < 0 or length > JobSpec.MAX_SOURCE_BYTES:
            raise HttpError(413, "PayloadTooLarge",
                            f"request body over "
                            f"{JobSpec.MAX_SOURCE_BYTES} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "BadRequest",
                                "request body shorter than "
                                "content-length")
    elif method in ("POST", "PUT"):
        raise HttpError(411, "LengthRequired",
                        f"{method} requests need content-length")
    connection = headers.get("connection", "").lower()
    keep_alive = version == "HTTP/1.1" and connection != "close" \
        or connection == "keep-alive"
    path = target.split("?", 1)[0]
    return HttpRequest(method, path, headers, body, keep_alive)


def json_response(status: int, payload: object,
                  keep_alive: bool = True,
                  extra_headers: Iterable[Tuple[str, str]] = ()
                  ) -> bytes:
    """Serialize one JSON response with correct framing headers."""
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class HttpServerBase:
    """Lifecycle plumbing shared by the gateway and the blob store:
    bind, keep-alive connection loop, uniform error rendering."""

    #: Where ``http_errors`` is counted, for a server that keeps
    #: :class:`~repro.obs.metrics.ServiceMetrics`.
    metrics = None

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()

    async def start(self) -> "HttpServerBase":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=JobSpec.MAX_SOURCE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._stop.wait()

    def request_stop(self) -> None:
        self._stop.set()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(json_response(exc.status, exc.body(),
                                               keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    response, stop = await self._dispatch(request)
                except Exception as exc:
                    # A handler nobody expected to raise (a bug, a full
                    # disk under the cache): answer, hang up, and keep
                    # serving every other connection.
                    traceback.print_exc()
                    if self.metrics is not None:
                        self.metrics.incr("http_errors")
                    writer.write(json_response(
                        500, error_body("InternalError",
                                        f"{type(exc).__name__}: {exc}"),
                        keep_alive=False))
                    await writer.drain()
                    break
                writer.write(response)
                await writer.drain()
                if stop:
                    self.request_stop()
                    break
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest
                        ) -> Tuple[bytes, bool]:
        """Route one request and frame the answer (an
        :class:`HttpError` out of the route is an answer too);
        returns ``(response bytes, stop the server afterwards)``."""
        if self.metrics is not None:
            self.metrics.incr("http_requests")
        try:
            status, payload, headers, stop = await self._route(request)
        except HttpError as exc:
            status, payload, headers, stop = (exc.status, exc.body(),
                                              (), False)
        if status >= 400 and self.metrics is not None:
            self.metrics.incr("http_errors")
        return (json_response(status, payload,
                              keep_alive=request.keep_alive,
                              extra_headers=headers), stop)

    async def _route(self, request: HttpRequest):
        """``(status, payload, extra headers, stop)`` for one request."""
        raise NotImplementedError


class HttpGateway(HttpServerBase):
    """HTTP/JSON front of a :class:`WorkerPool`, and the one place a
    served job is admitted to it.

    * **loop hits** -- a job whose payload is in the cache's memory
      tier is answered on the event loop (:meth:`WorkerPool.recall`).
      It takes no executor thread, joins no flight, is never refused
      ``Busy`` and does not raise ``peak_queue_depth``;
    * **single-flight deduplication** -- identical jobs (same content
      address) submitted while one is already executing *join* the
      in-flight computation instead of re-running it; every joiner
      gets the same payload;
    * **backpressure** -- beyond ``max_queue_depth`` concurrently
      admitted jobs, new submissions are refused at once with a
      structured ``Busy`` error and ``Retry-After`` (clients retry;
      the server never builds an unbounded queue).

    Everything else -- a memory miss, a disk hit, a compute -- crosses
    to an executor thread."""

    def __init__(self, pool: WorkerPool, host: str = "127.0.0.1",
                 port: int = 0, max_queue_depth: int = 64):
        super().__init__(host, port)
        self.pool = pool
        self.metrics = pool.metrics
        self.max_queue_depth = max_queue_depth
        #: key -> the future of the one admitted job computing it.
        self._inflight: Dict[str, asyncio.Future] = {}
        # Executor threads bridge the async loop to the blocking pool.
        # Over workers a thread only looks up, waits and stores, so
        # every admitted job gets one and a hit never queues behind
        # misses; inline (workers=0) the threads compute, so few.
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, max_queue_depth if pool.workers else 0),
            thread_name_prefix="serve-job")

    async def start(self) -> "HttpGateway":
        self.pool.start()
        await super().start()
        return self

    async def serve_until_shutdown(self) -> None:
        await super().serve_until_shutdown()
        self._executor.shutdown(wait=False)

    # -- routing -----------------------------------------------------------

    async def _route(self, request: HttpRequest):
        method, path = request.method, request.path
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, {"ok": True, "role": "gateway",
                         "version": PIPELINE_VERSION,
                         "workers": self.pool.workers}, (), False
        if path == "/metrics":
            self._require(method, "GET", path)
            return 200, {"ok": True,
                         "metrics": self.pool.metrics_snapshot(),
                         "inflight": len(self._inflight)}, (), False
        if path == "/v1/jobs":
            self._require(method, "POST", path)
            return await self._submit(request.json())
        if path == "/v1/shutdown":
            self._require(method, "POST", path)
            return 200, {"ok": True, "shutdown": True}, (), True
        raise HttpError(404, "NotFound", f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(405, "MethodNotAllowed",
                            f"{path} only accepts {expected}")

    # -- admission ---------------------------------------------------------

    async def _submit(self, job: object):
        """Admit and run one job (the parsed request body)."""
        try:
            spec = JobSpec.from_dict(job)
            key = spec.canonical_key()
        except ReproError as exc:
            return 400, error_body(type(exc).__name__, str(exc)), (), False
        except Exception as exc:
            # Whatever a malformed spec trips over, the client is told
            # its job was bad, not which Python exception said so.
            return 400, error_body("ServiceError",
                                   f"bad job spec: {exc}"), (), False

        # Before single-flight and back-pressure: a memory hit needs
        # no thread and no slot.
        result = self.pool.recall(spec, key)
        if result is not None:
            return self._answer(result, False)

        existing = self._inflight.get(key)
        if existing is not None:
            # Single-flight join: ride the in-flight computation.
            self.metrics.incr("singleflight_hits")
            return self._answer(await asyncio.shield(existing), True)

        if len(self._inflight) >= self.max_queue_depth:
            self.metrics.incr("rejected_busy")
            return 503, error_body(
                "Busy",
                f"queue depth limit reached "
                f"({self.max_queue_depth} jobs in flight); retry",
                retry=True), (("Retry-After", "1"),), False

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            result = await loop.run_in_executor(
                self._executor, self.pool.run_job, spec, None, key)
        except Exception as exc:
            result = JobResult.failed(spec.kind, exc, 6, key=key)
        finally:
            del self._inflight[key]
        future.set_result(result)
        return self._answer(result, False)

    @staticmethod
    def _answer(result: JobResult, singleflight: bool):
        """A job's envelope, under the status its exit code maps to."""
        status = 200 if result.ok else http_status_for(
            int((result.error or {}).get("code", 6)))
        return status, {"ok": result.ok, "singleflight": singleflight,
                        "result": result.to_dict()}, (), False


# ---------------------------------------------------------------------------
# Blocking entry point (CLI)
# ---------------------------------------------------------------------------


def run_until_shutdown(make_server, ready_callback=None) -> None:
    """Blocking: build a server on a fresh event loop and serve until a
    shutdown request arrives.  ``ready_callback(server)`` fires once
    the port is bound (the CLI prints it)."""
    async def main() -> None:
        server = await make_server().start()
        if ready_callback is not None:
            ready_callback(server)
        await server.serve_until_shutdown()

    asyncio.run(main())


def serve_gateway_forever(pool: WorkerPool, host: str = "127.0.0.1",
                          port: int = 7781, max_queue_depth: int = 64,
                          ready_callback=None) -> None:
    """Blocking entry point of ``python -m repro serve``; closes the
    pool on the way out."""
    try:
        run_until_shutdown(
            lambda: HttpGateway(pool, host, port,
                                max_queue_depth=max_queue_depth),
            ready_callback)
    finally:
        pool.close()
