"""Serving: the HTTP gateway, a blob store, a process launcher.

:mod:`repro.service` makes the pipeline cacheable and poolable; this
package puts it on the network:

* :mod:`repro.fleet.http` -- a stdlib-only asyncio HTTP/1.1 JSON
  gateway over a :class:`~repro.service.pool.WorkerPool` behind its
  :class:`~repro.service.pool.JobAdmission` -- the one server and the
  one wire format -- so :class:`~repro.service.client.ServiceClient`,
  browsers, ``curl``, and standard load balancers submit jobs
  (``POST /v1/jobs``) and scrape health and metrics (``GET /healthz``,
  ``GET /metrics``) the same way.  A gateway's one cache is its pool's
  :class:`~repro.service.cache.ArtifactCache` (memory -> disk);
* :mod:`repro.fleet.store` -- a content-addressed HTTP blob server
  (:class:`BlobStoreServer`, the ``fleet-store`` verb) and its blocking
  client (:class:`RemoteStore`).  No gateway uses them.  They remain
  only because the benchmark's traced fleet probe imports
  ``launch_store`` and ``RemoteStore`` to time a put and a get, and
  they go in the change after the benchmark drops its
  ``fleet.store_*`` rows (ROADMAP item 1);
* :mod:`repro.fleet.loadgen` -- the launcher: gateways and stores as
  real OS processes (``bench/``, the one load harness, drives it for
  its ``serve-*`` workloads).

The dependency runs one way, fleet -> service.  CLI verbs: ``python -m
repro serve`` / ``fleet-store``.
"""

from repro.fleet.http import (
    HttpGateway,
    serve_gateway_forever,
)
from repro.fleet.store import (
    BlobStoreServer,
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
    "serve_gateway_forever",
    "BlobStoreServer",
    "RemoteStore",
    "serve_store_forever",
    "FleetProcess",
    "launch_gateway",
    "launch_store",
]
