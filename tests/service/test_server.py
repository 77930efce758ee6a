"""ServiceClient against a live gateway: what ``submit`` / ``batch
--connect`` and the benchmark's probe see of the one wire."""

import os
import sys

import pytest

from repro.errors import ServiceError
from repro.fleet.loadgen import FleetProcess, free_port, launch_gateway
from repro.service.client import ServiceClient, http_json, wait_for_server
from repro.service.jobs import JobSpec

from tests.service.conftest import start_gateway

SOURCE = "int main(int n) { return n + 1; }"
ECHO = JobSpec("selftest", selftest={"behavior": "echo"})


@pytest.fixture()
def server(tmp_path):
    """A live gateway (2 workers, disk cache in tmp) on an ephemeral
    port; yields (host, port) and shuts it down afterwards."""
    live = start_gateway(workers=2, cache_dir=str(tmp_path / "cache"))
    yield live.host, live.port
    live.close()


class TestProtocol:
    def test_submit_round_trip(self, server):
        with ServiceClient(*server) as client:
            result = client.submit(JobSpec("run", source=SOURCE,
                                           nodes=1, args=[41]))
            assert result.ok
            assert result.payload["run"]["value"] == 42

    def test_second_submit_hits_the_cache(self, server):
        spec = JobSpec("run", source=SOURCE, nodes=1, args=[1])
        with ServiceClient(*server) as client:
            first = client.submit(spec)
            second = client.submit(spec)
        assert first.cache == "miss" and second.cache == "hit"
        assert second.payload == first.payload

    def test_batch_results_in_submission_order(self, server):
        # More jobs than batch threads, so order is not an accident.
        count = 2 * ServiceClient.BATCH_THREADS + 3
        specs = [JobSpec("selftest",
                         selftest={"behavior": "echo", "value": i})
                 for i in range(count)]
        with ServiceClient(*server) as client:
            results = client.batch(specs)
        assert [r.payload["echo"] for r in results] == list(range(count))

    def test_stats(self, server):
        with ServiceClient(*server) as client:
            client.submit(ECHO)
            stats = client.stats()
        metrics = stats["metrics"]
        assert metrics["jobs_completed"] >= 1
        assert metrics["workers"] == 2
        assert "latency" in metrics

    def test_job_level_failure_is_not_a_protocol_failure(self, server):
        with ServiceClient(*server) as client:
            result = client.submit(JobSpec("compile",
                                           source="int main( {"))
        assert not result.ok
        assert result.error["code"] == 3

    def test_malformed_job_is_rejected(self, server):
        with ServiceClient(*server) as client:
            with pytest.raises(ServiceError,
                               match=r"\[ServiceError\]: unknown job kind"):
                client.submit({"kind": "transmogrify"})

    def test_wait_for_server_helper(self, server):
        with wait_for_server(*server, timeout=5) as client:
            assert client.submit(ECHO).ok

    def test_connect_to_nothing_raises(self):
        with ServiceClient("127.0.0.1", 1, timeout=0.5,
                           retry_backoff_s=0.01) as client:
            with pytest.raises(ServiceError, match="connection to 127.0.0.1:1 failed"):
                client.ping()
        with pytest.raises(ServiceError, match="no service at"):
            wait_for_server("127.0.0.1", 1, timeout=0.2)


def test_serve_subprocess_as_the_benchmark_probes_it(tmp_path):
    """What ``bench/layers.py::_tcp`` does, step for step: ``bench/``
    is read-only to a product PR, so this is where a change that would
    break its probe fails first."""
    port = free_port()
    server = FleetProcess(
        "serve", [sys.executable, "-m", "repro", "serve", "--port",
                  str(port), "--workers", "2", "--cache-dir",
                  os.path.join(str(tmp_path), "tcp")], "127.0.0.1", port)
    job = JobSpec("run", source=SOURCE, nodes=1, args=[1]).to_dict()
    try:
        with wait_for_server(server.host, port, timeout=30.0) as client:
            assert client.submit(ECHO.to_dict()).payload == {"echo": None}
            assert client.submit(job).cache == "miss"
            assert client.submit(job).cache == "hit"
            client.shutdown()
        assert server.proc.wait(timeout=10.0) == 0
    finally:
        server.kill()


def test_a_crash_job_does_not_stop_an_inline_gateway():
    """``serve --workers 0`` computes in its own process: a crash job is
    answered with a structured error, and the gateway lives on."""
    gateway = launch_gateway(None, workers=0)
    try:
        status, body = http_json(
            "POST", gateway.host, gateway.port, "/v1/jobs",
            body={"kind": "selftest", "selftest": {"behavior": "crash"}})
        assert status == 503
        assert body["result"]["error"]["type"] == "ServiceError"
        status, health = http_json("GET", gateway.host, gateway.port,
                                   "/healthz")
        assert status == 200 and health["ok"] is True
    finally:
        gateway.shutdown()
    assert gateway.proc.returncode == 0
