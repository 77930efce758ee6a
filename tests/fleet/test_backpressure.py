"""Backpressure + single-flight dedup under real concurrency, through
the gateway to the one JobAdmission behind it."""

import threading

from repro.service.client import http_json
from repro.service.jobs import JobSpec


def _sleep_spec(seconds=0.5, tag="dedup"):
    return JobSpec("selftest", selftest={"behavior": "sleep",
                                         "seconds": seconds,
                                         "value": tag})


class TestHttpBackpressure:
    def test_zero_depth_rejects_with_structured_busy(self, tmp_path):
        from tests.fleet.conftest import start_gateway
        gateway = start_gateway(workers=0, max_queue_depth=0)
        try:
            status, body = gateway.request(
                "POST", "/v1/jobs", body=_sleep_spec(0).to_dict())
            assert status == 503
            assert body["ok"] is False
            assert body["error"]["type"] == "Busy"
            assert body["retry"] is True
            _, metrics = gateway.request("GET", "/metrics")
            assert metrics["metrics"]["rejected_busy"] == 1
        finally:
            gateway.close()

    def test_retry_after_header_is_present(self, tmp_path):
        import http.client
        from tests.fleet.conftest import start_gateway
        gateway = start_gateway(workers=0, max_queue_depth=0)
        try:
            connection = http.client.HTTPConnection(
                gateway.host, gateway.port, timeout=30)
            import json as json_mod
            data = json_mod.dumps(_sleep_spec(0).to_dict())
            connection.request("POST", "/v1/jobs", body=data,
                               headers={"Content-Type":
                                        "application/json"})
            response = connection.getresponse()
            response.read()
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            connection.close()
        finally:
            gateway.close()

    def test_depth_one_rejects_the_overflow_only(self, tmp_path):
        from tests.fleet.conftest import start_gateway
        gateway = start_gateway(workers=2, max_queue_depth=1)
        try:
            statuses = [None, None]

            def submit(index, tag):
                statuses[index] = gateway.request(
                    "POST", "/v1/jobs",
                    body=_sleep_spec(1.0, tag).to_dict(),
                    timeout=60)[0]

            # Two *distinct* slow jobs: the first occupies the single
            # admission slot, the second must get the 503.
            first = threading.Thread(target=submit, args=(0, "slot"))
            first.start()
            deadline = threading.Event()
            for _ in range(100):
                _, metrics = gateway.request("GET", "/metrics")
                if metrics["inflight"] >= 1:
                    break
                deadline.wait(0.02)
            submit(1, "overflow")
            first.join(timeout=30)
            assert sorted(statuses) == [200, 503]
        finally:
            gateway.close()


class TestExactlyOnceDedup:
    N = 6

    def test_http_identical_concurrent_submissions_run_once(self):
        from tests.fleet.conftest import start_gateway
        gateway = start_gateway(workers=2)
        try:
            spec = _sleep_spec(0.5, "http-once").to_dict()
            bodies = [None] * self.N
            barrier = threading.Barrier(self.N)

            def submit(index):
                barrier.wait()
                bodies[index] = http_json(
                    "POST", gateway.host, gateway.port, "/v1/jobs",
                    body=spec, timeout=60)[1]

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(self.N)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(body["ok"] for body in bodies)
            payloads = [body["result"]["payload"] for body in bodies]
            assert all(p == payloads[0] for p in payloads)
            joined = sum(1 for body in bodies if body["singleflight"])
            assert joined == self.N - 1
            _, metrics = gateway.request("GET", "/metrics")
            # The job executed exactly once.
            assert metrics["metrics"]["jobs_completed"] == 1
            assert metrics["metrics"]["singleflight_hits"] == \
                self.N - 1
        finally:
            gateway.close()
