"""Shared object-store tier behind the content-addressed cache.

The service cache key already contains ``PIPELINE_VERSION`` and the
full resolved job inputs, so a payload stored under a key is valid on
*every* host forever: cross-host staleness is structurally impossible,
and the only thing a fleet needs is a place to share the bytes.  This
module provides that place:

* :class:`BlobStoreServer` -- a small HTTP blob server (the asyncio
  base from :mod:`repro.fleet.http`) storing JSON payloads under their
  SHA-256 keys in an ordinary :class:`ArtifactCache` directory.
  ``PUT /blobs/<key>`` is put-if-absent: the first writer creates, later
  writers of the same key are acknowledged no-ops (writers race
  benignly -- content addressing means their payloads are identical).
* :class:`RemoteStore` -- the blocking client a pool's cache embeds
  (one per gateway, in the parent process, so one breaker).  Short
  timeouts, one bounded retry, and a failure-counting breaker that
  degrades to local-only operation when the store is unreachable: a
  store outage can slow a fleet down (cold computes everywhere) but
  can never fail a job.
* :class:`FleetCache` -- an :class:`ArtifactCache` with the remote
  store as its third tier: memory -> local disk -> remote.  Remote
  fills are single-flight per key (N executor threads missing on one
  key fetch once) and land in the local tiers, so a key is fetched
  from the network at most once per host per eviction lifetime.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Dict, Optional, Tuple

from repro.fleet.http import (
    HttpError,
    HttpRequest,
    HttpServerBase,
    run_until_shutdown,
)
from repro.harness.pipeline import PIPELINE_VERSION
from repro.service.cache import ArtifactCache
from repro.service.client import http_json, with_retries

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
    """Blocking blob-store client with bounded retry and a breaker.

    Failure policy, tuned for the job hot path it sits on:

    * every request has a short ``timeout_s``;
    * a failed request is retried once after ``retry_backoff_s``
      (transient resets heal, a down store costs at most
      ``2 * timeout_s`` per probe);
    * ``fail_threshold`` *consecutive* failures open the breaker for
      ``cooldown_s``: probes during the cooldown are skipped instantly
      and counted as fallbacks, so a dead store stops taxing the fleet
      within a handful of jobs.  Any success closes the breaker.

    Never raises from :meth:`get`/:meth:`put`: the store is an
    accelerator, and losing it degrades the fleet to local-only
    operation instead of failing jobs.
    """

    def __init__(self, url: str, timeout_s: float = 2.0,
                 retries: int = 1, retry_backoff_s: float = 0.05,
                 fail_threshold: int = 3, cooldown_s: float = 5.0):
        self.url = url
        self.host, self.port = parse_store_url(url)
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.fail_threshold = fail_threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._open_until = 0.0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0
        self.fallbacks = 0

    # -- breaker -----------------------------------------------------------

    def _admit(self) -> bool:
        with self._lock:
            if time.monotonic() < self._open_until:
                self.fallbacks += 1
                return False
        return True

    def _record(self, success: bool) -> None:
        with self._lock:
            if success:
                self._consecutive_failures = 0
                return
            self.errors += 1
            self.fallbacks += 1
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.fail_threshold:
                self._open_until = time.monotonic() + self.cooldown_s

    def _request(self, method: str, key: str,
                 body: Optional[Dict[str, object]] = None):
        return with_retries(
            lambda: http_json(method, self.host, self.port,
                              f"/blobs/{key}", body=body,
                              timeout=self.timeout_s),
            self.retries, self.retry_backoff_s)

    # -- operations --------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or None (miss, outage, or
        open breaker -- the caller cannot and need not distinguish)."""
        if not self._admit():
            return None
        try:
            status, payload = self._request("GET", key)
        except OSError:
            self._record(False)
            return None
        self._record(True)
        with self._lock:
            if status == 200 and isinstance(payload, dict):
                self.hits += 1
                return payload
            self.misses += 1
        return None

    def put(self, key: str, payload: Dict[str, object]) -> bool:
        """Best-effort put-if-absent upload; True when the store holds
        the blob afterwards (created or already present)."""
        if not self._admit():
            return False
        try:
            status, _body = self._request("PUT", key, body=payload)
        except OSError:
            self._record(False)
            return False
        self._record(True)
        with self._lock:
            if status in (200, 201):
                self.puts += 1
                return True
            self.errors += 1
        return False

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            probes = self.hits + self.misses
            return {
                "url": self.url,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "errors": self.errors,
                "fallbacks": self.fallbacks,
                "hit_rate": self.hits / probes if probes else 0.0,
                "breaker_open": time.monotonic() < self._open_until,
            }


# ---------------------------------------------------------------------------
# Three-tier cache
# ---------------------------------------------------------------------------


class FleetCache(ArtifactCache):
    """An :class:`ArtifactCache` (memory -> local disk) with a
    :class:`RemoteStore` third tier.

    * :meth:`get` -- local tiers first; on a full local miss, a
      single-flight remote fetch whose result is written into the
      local tiers (subsequent probes hit locally).
    * :meth:`put` -- local tiers plus a best-effort remote upload, so
      every host's cold computations warm the whole fleet.
    """

    def __init__(self, root: Optional[str], remote: RemoteStore,
                 memory_entries: int = 256):
        super().__init__(root, memory_entries=memory_entries)
        self.remote = remote
        self._fill_lock = threading.Lock()
        self._filling: Dict[str, threading.Event] = {}

    def get(self, key: str) -> Optional[Dict[str, object]]:
        payload = super().get(key)
        if payload is not None:
            return payload
        # Single-flight remote fill: first misser fetches, concurrent
        # missers wait and re-probe the local tiers it filled.  A late
        # misser can lead after an earlier leader filled them, so a
        # leader re-probes them (its miss is counted) before fetching.
        with self._fill_lock:
            gate = self._filling.get(key)
            if gate is None:
                self._filling[key] = threading.Event()
                leader = True
            else:
                leader = False
        if not leader:
            gate.wait(timeout=2 * self.remote.timeout_s
                      * (self.remote.retries + 1) + 1.0)
            return super().get(key)
        try:
            payload = self._lookup(key)
            if payload is not None:
                return payload
            payload = self.remote.get(key)
            if payload is not None:
                # Fill local tiers only -- the blob came *from* the
                # store, re-uploading it would be a pointless write.
                # A disk that refuses it (counted: ``put_errors``)
                # does not lose the probe its answer.
                try:
                    super().put(key, payload)
                except OSError:
                    pass
            return payload
        finally:
            with self._fill_lock:
                self._filling.pop(key).set()

    def put(self, key: str, payload: Dict[str, object]) -> None:
        # Remote first: it never raises, so a local disk that refuses
        # the write (raised to the caller) still warms the fleet.
        self.remote.put(key, payload)
        super().put(key, payload)

    def snapshot(self) -> Dict[str, object]:
        data = super().snapshot()
        data["remote"] = self.remote.snapshot()
        return data

    def __repr__(self) -> str:
        return (f"FleetCache(root={self.root!r}, "
                f"remote={self.remote.url!r})")


# ---------------------------------------------------------------------------
# Blocking entry point (CLI)
# ---------------------------------------------------------------------------


def serve_store_forever(root: str, host: str = "127.0.0.1",
                        port: int = 7792, ready_callback=None) -> None:
    """Blocking entry point of ``python -m repro fleet-store``."""
    run_until_shutdown(lambda: BlobStoreServer(root, host, port),
                       ready_callback)
