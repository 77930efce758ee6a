"""Loop hits in a real ``python -m repro serve`` process.

One worker and two admission slots: two ``selftest`` sleep jobs hold
both slots while two client threads send 200 requests for a primed
payload.  Every one is answered ``200`` with ``cache: hit`` from the
gateway's event loop -- none is refused ``Busy`` -- and the sleepers
are still in flight when the last hit returns.  The in-process
counterparts, which count executor submissions, are in
``tests/service/test_loop_hits.py``.

A subprocess and a few seconds: marked ``ci_only``, run by CI's
``contracts`` job (``PYTHONPATH=src python -m pytest -q -m ci_only
tests/service/test_serve_loop_hits.py``).
"""

import threading
import time

import pytest

from repro.fleet.loadgen import launch_gateway
from repro.service.client import http_json
from repro.service.jobs import JobSpec

HIT = JobSpec("run", source="int main(int n) { return n - 1; }",
              nodes=1, args=[8]).to_dict()


def _sleep(tag):
    return JobSpec("selftest", selftest={"behavior": "sleep",
                                         "seconds": 3.0,
                                         "value": tag}).to_dict()


@pytest.mark.ci_only
def test_hits_are_answered_while_admission_is_full(tmp_path):
    gateway = launch_gateway(str(tmp_path / "cache"), workers=1,
                             max_queue_depth=2)
    try:
        def post(body, timeout=30.0):
            return http_json("POST", gateway.host, gateway.port,
                             "/v1/jobs", body=body, timeout=timeout)

        status, primed = post(HIT)
        assert status == 200 and primed["result"]["cache"] == "miss"

        sleepers = [threading.Thread(target=post, args=(_sleep(tag),),
                                     daemon=True)
                    for tag in ("a", "b")]
        for thread in sleepers:
            thread.start()
        deadline = time.monotonic() + 20
        while gateway.metrics()["inflight"] < 2:
            assert time.monotonic() < deadline, "sleepers not admitted"
            time.sleep(0.01)

        answers = [[], []]

        def hammer(index):
            for _ in range(100):
                answers[index].append(post(HIT, timeout=10.0))

        clients = [threading.Thread(target=hammer, args=(i,))
                   for i in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
            assert not thread.is_alive()
        body = gateway.metrics()
        assert body["inflight"] == 2, "the sleepers ended first"

        replies = answers[0] + answers[1]
        assert len(replies) == 200
        for status, reply in replies:
            assert status == 200, reply
            assert reply["result"]["cache"] == "hit"
            assert reply["result"]["payload"] == primed["result"]["payload"]
        metrics = body["metrics"]
        assert metrics["rejected_busy"] == 0
        assert metrics["cache"]["memory_hits"] >= 200
        for thread in sleepers:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        gateway.shutdown()
    assert gateway.proc.returncode is not None
