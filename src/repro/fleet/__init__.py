"""Fleet serving: the HTTP gateway, a shared object store, a process
launcher.

:mod:`repro.service` makes the pipeline cacheable and poolable; this
package puts it on the network and lets several hosts share what they
compute:

* :mod:`repro.fleet.http` -- a stdlib-only asyncio HTTP/1.1 JSON
  gateway over a :class:`~repro.service.pool.WorkerPool` behind its
  :class:`~repro.service.pool.JobAdmission` -- the one server and the
  one wire format -- so :class:`~repro.service.client.ServiceClient`,
  browsers, ``curl``, and standard load balancers submit jobs
  (``POST /v1/jobs``) and scrape health and metrics (``GET /healthz``,
  ``GET /metrics``) the same way;
* :mod:`repro.fleet.store` -- a networked object-store tier behind the
  existing SHA-256 content addresses: a small HTTP blob server plus a
  :class:`RemoteStore` client that slots under
  :class:`~repro.service.cache.ArtifactCache` as a third tier
  (memory -> local disk -> remote) of a gateway's one cache -- one
  client, one breaker, in the parent process -- with single-flight
  fill, PUT-if-absent writes, and graceful degradation to local-only
  when the store is unreachable;
* :mod:`repro.fleet.loadgen` -- the launcher: gateways and stores as
  real OS processes (``bench/``, the one load harness, drives it for
  its ``serve-*`` workloads).

Content addressing is what makes the shared tier safe:
``PIPELINE_VERSION`` is part of every key, so two hosts running
different pipeline versions can share a store without ever serving each
other stale payloads -- a stale key simply never matches.

The dependency runs one way, fleet -> service.  CLI verbs: ``python -m
repro serve`` / ``fleet-store``.
"""

from repro.fleet.http import (
    HttpGateway,
    http_json,
    serve_gateway_forever,
)
from repro.fleet.store import (
    BlobStoreServer,
    FleetCache,
    RemoteStore,
    serve_store_forever,
)
from repro.fleet.loadgen import (
    FleetProcess,
    launch_gateway,
    launch_store,
)

__all__ = [
    "HttpGateway",
    "http_json",
    "serve_gateway_forever",
    "BlobStoreServer",
    "FleetCache",
    "RemoteStore",
    "serve_store_forever",
    "FleetProcess",
    "launch_gateway",
    "launch_store",
]
