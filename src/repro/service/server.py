"""Asyncio JSON-over-TCP front end for the compile service.

Wire protocol: newline-delimited JSON objects, one request per line,
one response line per request, in order, over a plain TCP connection
(stdlib only; the HTTP front end is :mod:`repro.fleet.http`).
Requests carry an ``op``:

* ``{"op": "ping"}`` -- liveness + pipeline version;
* ``{"op": "submit", "job": {...}}`` -- run one :class:`JobSpec`;
* ``{"op": "batch", "jobs": [...]}`` -- run many concurrently,
  responses in submission order;
* ``{"op": "stats"}`` -- service metrics + cache counters;
* ``{"op": "shutdown"}`` -- stop the server after responding.

Two serving-layer behaviours the pool alone cannot provide:

* **single-flight deduplication** -- identical jobs (same content
  address) submitted while one is already executing *join* the
  in-flight computation instead of re-running it; every joiner gets
  the same payload.
* **backpressure** -- beyond ``max_queue_depth`` concurrently-admitted
  jobs, new submissions are rejected immediately with a structured
  ``busy`` error (clients retry; the server never builds an unbounded
  queue).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.harness.pipeline import PIPELINE_VERSION
from repro.service.jobs import JobResult, JobSpec
from repro.service.pool import WorkerPool

#: Job sources and listings can be large; lift asyncio's default 64 KiB
#: line limit well clear of any real payload.
STREAM_LIMIT = 32 * 1024 * 1024


class JobAdmission:
    """The serving-layer admission core: single-flight deduplication and
    queue-depth backpressure over a :class:`WorkerPool`.

    Both front ends -- the TCP :class:`JobServer` here and the HTTP
    gateway in :mod:`repro.fleet.http` -- delegate job admission to this
    class, so the two paths cannot drift: the same jobs coalesce, the
    same overload produces the same structured ``Busy`` error, and a
    job's response dict is identical whichever wire format carried it.
    """

    def __init__(self, pool: WorkerPool, max_queue_depth: int = 64):
        self.pool = pool
        self.max_queue_depth = max_queue_depth
        self.metrics = pool.metrics
        self._inflight: Dict[str, asyncio.Future] = {}
        self._admitted = 0
        # Executor threads bridge the async loop to the blocking pool;
        # enough of them to keep every worker fed plus headroom for
        # cache hits, which never reach a worker.
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * max(pool.workers, 1)),
            thread_name_prefix="serve-job")

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False)

    async def submit(self, job: object) -> Dict[str, object]:
        """Admit and run one job; returns the wire response dict
        (``{"ok": ..., "singleflight": ..., "result": ...}`` or a
        structured error)."""
        try:
            spec = JobSpec.from_dict(job)
            key = spec.canonical_key()
        except Exception as exc:
            return _error(type(exc).__name__, str(exc))

        existing = self._inflight.get(key)
        if existing is not None:
            # Single-flight join: ride the in-flight computation.
            self.metrics.incr("singleflight_hits")
            result = await asyncio.shield(existing)
            return {"ok": True, "singleflight": True,
                    "result": result.to_dict()}

        if self._admitted >= self.max_queue_depth:
            self.metrics.incr("rejected_busy")
            return _error(
                "Busy",
                f"queue depth limit reached "
                f"({self.max_queue_depth} jobs in flight); retry",
                retry=True)

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._admitted += 1
        try:
            result = await loop.run_in_executor(
                self._executor, self.pool.run_job, spec)
            future.set_result(result)
        except Exception as exc:
            result = JobResult(
                False, spec.kind, key,
                error={"type": type(exc).__name__,
                       "message": str(exc), "code": 6})
            future.set_result(result)
        finally:
            self._admitted -= 1
            self._inflight.pop(key, None)
        return {"ok": True, "singleflight": False,
                "result": result.to_dict()}


class JobServer:
    """Serve :class:`JobSpec` requests over TCP on top of a
    :class:`WorkerPool`."""

    def __init__(self, pool: WorkerPool, host: str = "127.0.0.1",
                 port: int = 0, max_queue_depth: int = 64):
        self.pool = pool
        self.host = host
        self.port = port
        self.max_queue_depth = max_queue_depth
        self.metrics = pool.metrics
        self.admission = JobAdmission(pool,
                                      max_queue_depth=max_queue_depth)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "JobServer":
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=STREAM_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`request_stop`)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._stop.wait()
        self.admission.shutdown()

    def request_stop(self) -> None:
        self._stop.set()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch(line)
                writer.write(json.dumps(response).encode("utf-8")
                             + b"\n")
                await writer.drain()
                if response.get("shutdown"):
                    self.request_stop()
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, line: bytes) -> Dict[str, object]:
        try:
            request = json.loads(line)
        except ValueError as exc:
            return _error("BadRequest", f"request is not JSON: {exc}")
        if not isinstance(request, dict):
            return _error("BadRequest", "request must be a JSON object")
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True,
                    "version": PIPELINE_VERSION}
        if op == "stats":
            return {"ok": True, "metrics": self.pool.metrics_snapshot(),
                    "inflight": self.admission.inflight}
        if op == "shutdown":
            return {"ok": True, "shutdown": True}
        if op == "submit":
            return await self._submit(request.get("job"))
        if op == "batch":
            jobs = request.get("jobs")
            if not isinstance(jobs, list):
                return _error("BadRequest",
                              "batch requests need a 'jobs' array")
            responses = await asyncio.gather(
                *(self._submit(job) for job in jobs))
            return {"ok": all(r.get("ok") for r in responses),
                    "results": list(responses)}
        return _error("BadRequest", f"unknown op {op!r}")

    # -- job admission -----------------------------------------------------

    async def _submit(self, job: object) -> Dict[str, object]:
        return await self.admission.submit(job)


def _error(error_type: str, message: str,
           retry: bool = False) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "ok": False,
        "error": {"type": error_type, "message": message, "code": 6},
    }
    if retry:
        payload["retry"] = True
    return payload


async def _serve(pool: WorkerPool, host: str, port: int,
                 max_queue_depth: int, ready_callback) -> None:
    server = JobServer(pool, host, port,
                       max_queue_depth=max_queue_depth)
    await server.start()
    if ready_callback is not None:
        ready_callback(server)
    await server.serve_until_shutdown()


def serve_forever(pool: WorkerPool, host: str = "127.0.0.1",
                  port: int = 7781, max_queue_depth: int = 64,
                  ready_callback=None) -> None:
    """Blocking entry point: start a server and run until a shutdown
    request arrives.  ``ready_callback(server)`` fires once the socket
    is bound (the CLI uses it to print the actual port)."""
    try:
        asyncio.run(_serve(pool, host, port, max_queue_depth,
                           ready_callback))
    finally:
        pool.close()
