"""What the benchmark imports of serving, and nothing else.

* :mod:`repro.fleet.loadgen` -- the launcher: gateways and stores as
  real OS processes (``bench/``, the one load harness, drives it for
  its ``serve-*`` workloads);
* :mod:`repro.fleet.store` -- a content-addressed HTTP blob server
  (:class:`~repro.fleet.store.BlobStoreServer`, the ``fleet-store``
  verb) and its blocking client
  (:class:`~repro.fleet.store.RemoteStore`).  No gateway uses them:
  the benchmark's traced fleet probe times a put and a get.

The serving layer itself -- the gateway, the pool, the cache, the
client -- is :mod:`repro.service`.  This package re-exports nothing,
and both modules go in the change after the benchmark stops importing
them (ROADMAP item 1).
"""
