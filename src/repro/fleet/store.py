"""A content-addressed blob server and its client.

The service cache key already contains ``PIPELINE_VERSION`` and the
full resolved job inputs, so a payload stored under a key is valid
anywhere, forever.  This module serves such payloads over HTTP:

* :class:`BlobStoreServer` -- a small HTTP blob server (the asyncio
  base from :mod:`repro.service.http`) storing JSON payloads under their
  SHA-256 keys in an ordinary :class:`ArtifactCache` directory.
  ``PUT /blobs/<key>`` is put-if-absent: the first writer creates, later
  writers of the same key are acknowledged no-ops (content addressing
  means their payloads are identical).
* :class:`RemoteStore` -- its blocking client: one HTTP round trip per
  ``get`` / ``put``, and a transport error propagates.

No gateway layers this store under its cache: a pool's one cache is
memory -> disk.  The server, its client and the ``fleet-store`` verb
remain because the benchmark's traced fleet probe times a put and a
get against them (:mod:`repro.fleet` says when they go).
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.service.http import (
    HttpError,
    HttpRequest,
    HttpServerBase,
    run_until_shutdown,
)
from repro.harness.pipeline import PIPELINE_VERSION
from repro.service.cache import ArtifactCache
from repro.service.client import http_json

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


def parse_store_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` or bare ``host:port`` -> ``(host, port)``."""
    text = url.strip()
    if text.startswith("http://"):
        text = text[len("http://"):]
    text = text.rstrip("/")
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"store url must be [http://]HOST:PORT, "
                         f"got {url!r}")
    return host, int(port_text)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class BlobStoreServer(HttpServerBase):
    """HTTP blob server over one :class:`ArtifactCache` directory.

    Routes::

        GET  /blobs/<key>    200 payload | 404
        PUT  /blobs/<key>    201 created | 200 already present
        GET  /healthz        liveness + pipeline version
        GET  /metrics        cache counter snapshot
        POST /v1/shutdown    stop after responding
    """

    def __init__(self, root: str, host: str = "127.0.0.1",
                 port: int = 0, memory_entries: int = 512):
        super().__init__(host, port)
        self.cache = ArtifactCache(root, memory_entries=memory_entries)

    async def _route(self, request: HttpRequest):
        method, path = request.method, request.path
        if path == "/healthz":
            return 200, {"ok": True, "role": "store",
                         "version": PIPELINE_VERSION}, (), False
        if path == "/metrics":
            return 200, {"ok": True,
                         "blobs": self.cache.snapshot()}, (), False
        if path == "/v1/shutdown":
            if method != "POST":
                raise HttpError(405, "MethodNotAllowed",
                                "/v1/shutdown only accepts POST")
            return 200, {"ok": True, "shutdown": True}, (), True
        if path.startswith("/blobs/"):
            key = path[len("/blobs/"):]
            if not _KEY_RE.match(key):
                raise HttpError(400, "BadRequest",
                                f"blob keys are 64 lowercase hex "
                                f"chars, got {key!r}")
            if method == "GET":
                payload = self.cache.get(key)
                if payload is None:
                    raise HttpError(404, "NotFound",
                                    f"no blob {key[:12]}...")
                return 200, payload, (), False
            if method == "PUT":
                body = request.json()
                if not isinstance(body, dict):
                    raise HttpError(400, "BadRequest",
                                    "blob payloads must be JSON "
                                    "objects")
                # Put-if-absent: the store never rewrites an existing
                # address (identical content anyway); answering 200 vs
                # 201 lets clients count real uploads.
                if self.cache.get(key) is not None:
                    return 200, {"ok": True, "created": False}, (), False
                self.cache.put(key, body)
                return 201, {"ok": True, "created": True}, (), False
            raise HttpError(405, "MethodNotAllowed",
                            "/blobs/<key> only accepts GET and PUT")
        raise HttpError(404, "NotFound", f"no route for {path!r}")


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class RemoteStore:
    """Blocking client of one :class:`BlobStoreServer`.

    Each call is one :func:`~repro.service.client.http_json` round trip
    on a fresh connection.  An :class:`OSError` (refused, reset, timed
    out) propagates, and so does an answer the store never gives
    (:class:`~repro.errors.ServiceError`): nothing falls back."""

    def __init__(self, url: str, timeout_s: float = 2.0):
        self.url = url
        self.host, self.port = parse_store_url(url)
        self.timeout_s = timeout_s

    def _request(self, method: str, key: str,
                 body: Optional[Dict[str, object]] = None):
        return http_json(method, self.host, self.port, f"/blobs/{key}",
                         body=body, timeout=self.timeout_s)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or None if there is none."""
        status, payload = self._request("GET", key)
        if status == 200 and isinstance(payload, dict):
            return payload
        if status == 404:
            return None
        raise ServiceError(f"store GET {key[:12]}... answered {status}: "
                           f"{payload!r}")

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Put-if-absent: afterwards the store holds a blob under
        ``key`` (this one, or the identical one already there)."""
        status, body = self._request("PUT", key, body=payload)
        if status not in (200, 201):
            raise ServiceError(f"store PUT {key[:12]}... answered "
                               f"{status}: {body!r}")


# ---------------------------------------------------------------------------
# Blocking entry point (CLI)
# ---------------------------------------------------------------------------


def serve_store_forever(root: str, host: str = "127.0.0.1",
                        port: int = 7792, ready_callback=None) -> None:
    """Blocking entry point of ``python -m repro fleet-store``."""
    run_until_shutdown(lambda: BlobStoreServer(root, host, port),
                       ready_callback)
