"""Seeded generated-workload soak of the serving stack.

Fifty heterogeneous synthetic jobs (three shapes x both engines x
1/2/4 simulated nodes x rcache on/off), generated by
:mod:`repro.workload` from one seed, stream through a real HTTP
gateway with a disk cache.  A contiguous mid-run window of the stream
additionally carries a lossy fault profile, so the resilient network
path is exercised while the gateway is under load.  The soak pins the
end-to-end contract:

* zero dropped jobs -- every submission is answered ``ok`` (no
  backpressure, no transport errors, no job failures);
* exactly-once completion -- the gateway's metrics account for every
  job exactly once, and resubmitting a spec is answered from the
  artifact cache instead of re-executing;
* payload fidelity -- every deterministic payload matches an
  in-process replay of the same JobSpec (the HTTP hop and the cache
  added nothing and lost nothing).
"""

import threading

from repro.earth.faults import PROFILES
from repro.earth.interpreter import ENGINES
from repro.service import JobSpec, execute_job
from repro.workload import generate_jobs

from tests.fleet.conftest import start_gateway

TOTAL = 50
#: The lossy window: jobs 20..34 of the stream run under seeded drops.
FAULT_WINDOW = range(20, 35)
CLIENTS = 8


def _stream(seed):
    jobs = generate_jobs(seed, TOTAL,
                         engines=ENGINES,
                         nodes=(1, 2, 4), sizes=(3, 6), sweeps=(1, 2),
                         rcache_capacities=(0, 16))
    return [job.replace(run=job.run.replace(
                faults=dict(PROFILES["lossy"], seed=100 + i)))
            if i in FAULT_WINDOW else job
            for i, job in enumerate(jobs)]


def test_generated_soak_through_the_gateway(tmp_path):
    jobs = _stream(2026)
    gateway = start_gateway(workers=0,
                            cache_dir=str(tmp_path / "gateway-cache"))
    try:
        responses = [None] * TOTAL
        cursor = {"next": 0}
        lock = threading.Lock()

        def client():
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= TOTAL:
                        return
                    cursor["next"] = index + 1
                responses[index] = gateway.request(
                    "POST", "/v1/jobs", body=jobs[index].to_dict(),
                    timeout=120.0)

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)

        # Zero dropped jobs: every submission answered, every answer ok.
        assert all(response is not None for response in responses)
        for index, (status, body) in enumerate(responses):
            assert status == 200, (index, body)
            assert body["ok"], (index, body)
            assert body["result"]["ok"], (index, body)

        # Exactly-once completion, by the gateway's own accounting.
        metrics = gateway.request("GET", "/metrics")[1]["metrics"]
        assert metrics["jobs_submitted"] == TOTAL
        assert metrics["jobs_completed"] == TOTAL
        assert metrics["jobs_failed"] == 0
        assert metrics["rejected_busy"] == 0
        assert metrics["cache_hits"] == 0  # 50 distinct jobs

        # The lossy window genuinely hit the resilient path (1-node
        # jobs have no network to drop, so assert over the window).
        retries = sum(
            responses[index][1]["result"]["payload"]["run"]["stats"]
            ["op_retries"]
            for index in FAULT_WINDOW if jobs[index].run.nodes > 1)
        assert retries > 0

        # Payload fidelity: the HTTP + cache round trip returns exactly
        # what an in-process execution of the same spec computes.
        # (The run payload is the deterministic contract; the compile
        # payload's listing embeds process-global statement labels.)
        for index, job in enumerate(jobs):
            replay = execute_job(JobSpec.from_dict(job.to_dict()))
            assert replay.ok, index
            assert responses[index][1]["result"]["payload"]["run"] \
                == replay.payload["run"], index

        # Resubmitting a completed spec must not execute it again: the
        # artifact cache answers.
        status, body = gateway.request("POST", "/v1/jobs",
                                       body=jobs[0].to_dict(),
                                       timeout=120.0)
        assert status == 200 and body["result"]["cache"] == "hit"
        assert body["result"]["payload"] \
            == responses[0][1]["result"]["payload"]
        metrics = gateway.request("GET", "/metrics")[1]["metrics"]
        assert metrics["cache_hits"] == 1
    finally:
        gateway.close()
