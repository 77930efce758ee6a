"""Content-addressed artifact cache for compile/run payloads.

The Zhu--Hendren pipeline is a pure function of (source text, pipeline
options, pipeline version): the same inputs always produce the same
SIMPLE program, the same Threaded-C listing, and -- because the
simulator is deterministic -- the same run payload.  That makes every
pipeline product safe to memoize under a content address:

    key = sha256(canonical JSON of {source, options, PIPELINE_VERSION})

Two tiers back the address space:

* an **in-memory LRU** front (bounded entry count) for the serving
  hot set;
* an **on-disk store** under ``.repro-cache/objects/<k:2>/<k>.json``
  that outlives the process and may be shared by several.  Writes are
  atomic (temp file + ``os.replace``) so concurrent writers race
  benignly: last writer wins with an identical payload.

A :class:`~repro.service.pool.WorkerPool` owns exactly one cache; the
threads that submit to it share it, so every counter moves under the
lock.

A hit returns the stored payload verbatim -- bit-identical to what the
cold computation produced, including its original compile profile (a
cached artifact does not pretend it was just compiled).  Corrupt or
truncated disk entries are treated as misses and removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional

#: Default on-disk store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def canonical_json(value: object) -> str:
    """Deterministic JSON text for hashing: sorted keys, no whitespace
    variance, no NaN smuggling."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def canonicalize_source(source: str) -> str:
    """Normalize irrelevant source-text variance before hashing: line
    endings and trailing whitespace (neither can change the parse)."""
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line.rstrip() for line in text.split("\n")]
    return "\n".join(lines).rstrip("\n") + "\n"


def cache_key(parts: Dict[str, object]) -> str:
    """SHA-256 content address of a canonical-JSON-encoded dict."""
    encoded = canonical_json(parts).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class ArtifactCache:
    """Two-tier (memory LRU over disk) content-addressed payload store.

    ``root=None`` disables the disk tier (memory-only; used by tests
    and by pools told not to persist).  ``memory_entries=0`` disables
    the memory tier (every probe goes to disk).  Payloads must be
    JSON-serializable dicts.
    """

    def __init__(self, root: Optional[str] = DEFAULT_CACHE_DIR,
                 memory_entries: int = 256):
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.root = root
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()
        # Counters, exposed via snapshot() (a pool's is the ``cache``
        # object of ``/metrics``).
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.puts = 0
        self.put_errors = 0
        self.evictions = 0
        self.corrupt_entries = 0

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    # -- probes ------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or None.  A disk hit is
        promoted into the memory tier."""
        payload = self._lookup(key)
        if payload is None:
            with self._lock:
                self.misses += 1
        return payload

    def recall(self, key: str) -> Optional[Dict[str, object]]:
        """The memory tier's payload under ``key``, or None.  A hit is
        counted as :meth:`get` counts it; a miss is not counted, and
        nothing else is probed: no disk read (nor, in a subclass, any
        remote call), so an event loop may ask."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                self.memory_hits += 1
            return payload

    def _lookup(self, key: str) -> Optional[Dict[str, object]]:
        """:meth:`get` without counting a miss."""
        payload = self.recall(key)
        if payload is None and self.root is not None:
            payload = self._read_disk(key)
            if payload is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._remember(key, payload)
        return payload

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``key`` in both tiers; a disk write
        that fails is counted and raised (the memory tier keeps it)."""
        if not isinstance(payload, dict):
            raise TypeError(
                f"cache payloads must be dicts, got {type(payload).__name__}")
        with self._lock:
            self.puts += 1
            self._remember(key, payload)
        if self.root is not None:
            try:
                self._write_disk(key, payload)
            except OSError:
                with self._lock:
                    self.put_errors += 1
                raise

    def _remember(self, key: str, payload: Dict[str, object]) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    # -- disk tier ---------------------------------------------------------

    def _read_disk(self, key: str) -> Optional[Dict[str, object]]:
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            # The common case; not looked at again, as another thread
            # may be writing this very entry.
            return None
        except (OSError, ValueError):
            payload = None
        if isinstance(payload, dict):
            return payload
        # Anything unreadable or unparsable is dropped so it cannot
        # shadow a fresh write.
        if os.path.exists(path):
            with self._lock:
                self.corrupt_entries += 1
            try:
                os.unlink(path)
            except OSError:
                pass
        return None

    def _write_disk(self, key: str, payload: Dict[str, object]) -> None:
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            # One ``dumps``: ``json.dump`` would take the pure-Python
            # encoder (the C one serves one-shot encodes only); the
            # bytes are the same.
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance -------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` also remove every
        on-disk object (leaves the directory in place)."""
        with self._lock:
            self._memory.clear()
        if disk and self.root is not None:
            objects = os.path.join(self.root, "objects")
            if os.path.isdir(objects):
                for dirpath, _dirnames, filenames in os.walk(objects):
                    for name in filenames:
                        try:
                            os.unlink(os.path.join(dirpath, name))
                        except OSError:
                            pass

    def snapshot(self) -> Dict[str, object]:
        """Counter snapshot for metrics export."""
        with self._lock:
            probes = self.hits + self.misses
            return {
                "root": self.root,
                "memory_entries": len(self._memory),
                "hits": self.hits,
                "misses": self.misses,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "puts": self.puts,
                "put_errors": self.put_errors,
                "evictions": self.evictions,
                "corrupt_entries": self.corrupt_entries,
                "hit_rate": self.hits / probes if probes else 0.0,
            }

    def __repr__(self) -> str:
        return (f"ArtifactCache(root={self.root!r}, "
                f"memory={len(self._memory)}/{self.memory_entries}, "
                f"hits={self.hits}, misses={self.misses})")
