"""Acceptance: a second fleet server's cold start is fed by the store.

Real OS processes via the CLI verbs (``fleet-store`` / ``serve``):
gateway A computes an Olden job and uploads the artifact; gateway B -- fresh local cache, same store -- must serve the
same job from remote-store hits with **zero local compiles**, and the
payloads must be identical."""

from repro.fleet import http_json, launch_gateway, launch_store
from repro.service.jobs import JobSpec


def _submit(gateway, spec):
    status, body = http_json("POST", gateway.host, gateway.port,
                             "/v1/jobs", body=spec, timeout=300)
    assert status == 200, body
    return body["result"]


def test_second_server_cold_start_serves_from_the_store(tmp_path):
    spec = JobSpec("run", benchmark="power", nodes=2,
                   small=True).to_dict()
    store = launch_store(str(tmp_path / "store"))
    try:
        gw_a = launch_gateway(str(tmp_path / "a"),
                              store_url=store.url, workers=1)
        try:
            computed = _submit(gw_a, spec)
            assert computed["cache"] == "miss"
        finally:
            gw_a.shutdown()

        gw_b = launch_gateway(str(tmp_path / "b"),
                              store_url=store.url, workers=1)
        try:
            served = _submit(gw_b, spec)
            assert served["cache"] == "hit", \
                "gateway B should have been fed by the store"
            assert served["payload"] == computed["payload"]
            metrics = gw_b.metrics()["metrics"]
            assert metrics["store_hits"] >= 1
            assert metrics["cache_misses"] == 0, \
                "gateway B compiled locally despite the shared store"
        finally:
            gw_b.shutdown()
    finally:
        store.shutdown()
