"""Stdlib-only HTTP/1.1 JSON front end for the compile service -- the
one wire a job travels.

Two halves:

* a minimal asyncio HTTP server base (:class:`HttpServerBase`) with
  request parsing, keep-alive, and JSON responses -- shared by the
  gateway here and the blob store server in :mod:`repro.fleet.store`;
* the :class:`HttpGateway` itself, which adapts HTTP to the admission
  core in front of the worker pool
  (:class:`repro.service.pool.JobAdmission`).

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
thread per connection); requests ride one asyncio loop, a job whose
payload is in the cache's memory tier is answered on it, and every
other job crosses to the blocking pool on the admission core's
executor threads.  The blocking client side is
:mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import json
import traceback
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import error_body, http_status_for
from repro.harness.pipeline import PIPELINE_VERSION
from repro.service.pool import JobAdmission, WorkerPool

#: Upper bounds on request framing (a job source can be large, a header
#: block cannot).
MAX_BODY_BYTES = 32 * 1024 * 1024
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
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, "PayloadTooLarge",
                            f"request body over {MAX_BODY_BYTES} bytes")
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
            limit=MAX_BODY_BYTES)
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
    """HTTP/JSON adapter over a :class:`WorkerPool` behind its
    admission core (single-flight dedup + backpressure)."""

    def __init__(self, pool: WorkerPool, host: str = "127.0.0.1",
                 port: int = 0, max_queue_depth: int = 64):
        super().__init__(host, port)
        self.pool = pool
        self.metrics = pool.metrics
        self.admission = JobAdmission(pool,
                                      max_queue_depth=max_queue_depth)
        self._next_id = 0

    async def start(self) -> "HttpGateway":
        self.pool.start()
        await super().start()
        return self

    async def serve_until_shutdown(self) -> None:
        await super().serve_until_shutdown()
        self.admission.shutdown()

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
                         "inflight": self.admission.inflight}, (), False
        if path == "/v1/jobs":
            self._require(method, "POST", path)
            return await self._submit(request)
        if path == "/v1/shutdown":
            self._require(method, "POST", path)
            return 200, {"ok": True, "shutdown": True}, (), True
        raise HttpError(404, "NotFound", f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(405, "MethodNotAllowed",
                            f"{path} only accepts {expected}")

    # -- handlers ----------------------------------------------------------

    async def _submit(self, request: HttpRequest):
        response = await self.admission.submit(request.json())
        if not response.get("ok"):
            if response.get("retry"):
                # Backpressure: the structured Busy error plus the
                # HTTP-native retry signal.
                return 503, response, (("Retry-After", "1"),), False
            return 400, response, (), False
        result = response["result"]
        job_id = self._next_id
        self._next_id += 1
        envelope = {"ok": True, "id": job_id,
                    "singleflight": response["singleflight"],
                    "result": result}
        if result.get("ok"):
            status = 200
        else:
            error = result.get("error") or {}
            status = http_status_for(int(error.get("code", 6)))
            envelope["ok"] = False
        return status, envelope, (), False


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
