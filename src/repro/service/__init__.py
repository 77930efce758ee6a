"""Compile service: content-addressed caching, batch parallelism, and
the HTTP serving layer above the Zhu--Hendren pipeline.

The pipeline's phases are deterministic pure functions of (source,
options), so every product -- SIMPLE listing, Threaded-C form,
simulated run payload -- is memoizable under a content address and
safe to farm out to worker processes.  Layers, bottom up:

* :mod:`repro.service.cache` -- two-tier (memory LRU / on-disk)
  content-addressed artifact store keyed by SHA-256 of (canonicalized
  source, options, pipeline version);
* :mod:`repro.service.jobs` -- JSON-serializable :class:`JobSpec` /
  :class:`JobResult` (a job is one compile and at most one run:
  kinds ``compile`` and ``run``), the pure ``compute_job`` every
  worker runs, and the one lookup-before / store-after step around it
  (``CachedJob``; ``execute_job`` is the two in one process);
* :mod:`repro.service.pool` -- crash-tolerant multiprocessing
  :class:`WorkerPool` with one cache in the parent, in front of its
  workers, warm pipelines, per-attempt timeouts, and bounded
  exponential-backoff requeue;
* :mod:`repro.service.http` -- the one wire: an asyncio HTTP/1.1 JSON
  gateway over a pool, and the one door to it (loop hits,
  single-flight deduplication, queue-depth backpressure);
* :mod:`repro.service.client` -- the blocking HTTP round trip, its
  retry loop, and the :class:`ServiceClient` built from them.

CLI verbs: ``python -m repro serve`` / ``submit`` / ``batch``.
"""

from repro.service.cache import (
    DEFAULT_CACHE_DIR,
    ArtifactCache,
    cache_key,
    canonical_json,
    canonicalize_source,
)
from repro.service.client import ServiceClient, wait_for_server
from repro.service.jobs import (
    JOB_KINDS,
    JobResult,
    JobSpec,
    compile_payload,
    execute_job,
    run_payload,
)
from repro.service.pool import WorkerPool

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ArtifactCache",
    "cache_key",
    "canonical_json",
    "canonicalize_source",
    "ServiceClient",
    "wait_for_server",
    "JOB_KINDS",
    "JobResult",
    "JobSpec",
    "compile_payload",
    "execute_job",
    "run_payload",
    "WorkerPool",
]
