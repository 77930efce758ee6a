"""A memory-tier hit is answered on the gateway's event loop.

``JobAdmission.submit`` asks the pool for a hit that cannot block
(``WorkerPool.recall``: the cache's memory tier only) right after it
computes the key.  Such a hit takes no admission executor thread, never
enters the admission queue -- so it is never ``Busy`` and leaves
``peak_queue_depth`` alone -- and is counted, and enveloped, as an
executor hit is.  Everything else (a memory miss, a disk hit, a
compute) still crosses to an executor thread.  Every gateway
here counts the jobs handed to its admission executor."""

import threading

import pytest

from repro.service.jobs import JobSpec
from tests.fleet.conftest import start_gateway

SOURCE = "int main(int n) { return n * 3; }"


def _hit_spec(value=5):
    return JobSpec("run", source=SOURCE, nodes=1, args=[value]).to_dict()


def _sleep_spec(tag, seconds=3.0):
    return JobSpec("selftest", selftest={"behavior": "sleep",
                                         "seconds": seconds,
                                         "value": tag}).to_dict()


def _counted(live):
    """Count the calls ``live``'s admission hands to its executor; the
    list of their positional arguments."""
    executor = live.server.admission._executor
    calls = []
    submit = executor.submit

    def counting(fn, *args, **kwargs):
        calls.append(args)
        return submit(fn, *args, **kwargs)

    executor.submit = counting
    return calls


def _post(live, body, timeout=60.0):
    return live.request("POST", "/v1/jobs", body=body, timeout=timeout)


def _metrics(live):
    return live.request("GET", "/metrics")[1]


def _park(live, count, seconds=3.0):
    """``count`` sleep jobs on threads; returns once all are admitted."""
    threads = [threading.Thread(target=_post,
                                args=(live, _sleep_spec(f"park-{i}",
                                                        seconds)),
                                daemon=True)
               for i in range(count)]
    for thread in threads:
        thread.start()
    for _ in range(500):
        if _metrics(live)["inflight"] >= count:
            return threads
        threading.Event().wait(0.01)
    raise AssertionError("the sleep jobs were never admitted")


@pytest.fixture()
def live(tmp_path):
    gateway = start_gateway(workers=0, cache_dir=str(tmp_path / "cache"))
    yield gateway
    gateway.close()


class TestLoopHits:
    def test_a_hit_is_answered_while_every_executor_thread_is_parked(
            self, live):
        calls = _counted(live)
        status, primed = _post(live, _hit_spec())
        assert status == 200 and primed["result"]["cache"] == "miss"
        threads_total = live.server.admission._executor._max_workers
        parked = _park(live, threads_total)
        assert len(calls) == 1 + threads_total
        status, hit = _post(live, _hit_spec(), timeout=2.0)
        assert status == 200 and hit["result"]["cache"] == "hit"
        assert hit["result"]["payload"] == primed["result"]["payload"]
        # Answered while the sleepers still hold every thread, and
        # handed to none.
        assert _metrics(live)["inflight"] == threads_total
        assert len(calls) == 1 + threads_total
        for thread in parked:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_a_hit_is_not_busy_at_the_queue_depth_limit(self, tmp_path):
        live = start_gateway(workers=0, max_queue_depth=1)
        try:
            calls = _counted(live)
            assert _post(live, _hit_spec())[0] == 200
            parked = _park(live, 1)
            before = _metrics(live)["metrics"]
            for _ in range(5):
                status, hit = _post(live, _hit_spec(), timeout=2.0)
                assert status == 200, hit
                assert hit["result"]["cache"] == "hit"
            after = _metrics(live)["metrics"]
            assert after["rejected_busy"] == 0
            assert after["peak_queue_depth"] == before["peak_queue_depth"]
            assert len(calls) == 2
            # What is not a memory hit is still refused.
            status, busy = _post(live, _hit_spec(6))
            assert status == 503 and busy["error"]["type"] == "Busy"
            for thread in parked:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            live.close()

    def test_the_envelope_is_the_executor_paths(self, tmp_path):
        """A fresh gateway over a warm cache directory answers its first
        probe as a disk hit through the executor, promotes it, and
        answers the second on the loop: one envelope, but ``wall_s``."""
        root = str(tmp_path / "cache")
        first = start_gateway(workers=0, cache_dir=root)
        try:
            assert _post(first, _hit_spec())[1]["result"]["cache"] \
                == "miss"
        finally:
            first.close()
        live = start_gateway(workers=0, cache_dir=root)
        try:
            calls = _counted(live)
            status, executor_hit = _post(live, _hit_spec())
            assert status == 200 and len(calls) == 1
            cache = _metrics(live)["metrics"]["cache"]
            assert (cache["disk_hits"], cache["memory_hits"]) == (1, 0)
            status, loop_hit = _post(live, _hit_spec())
            assert status == 200 and len(calls) == 1
            cache = _metrics(live)["metrics"]["cache"]
            assert (cache["disk_hits"], cache["memory_hits"]) == (1, 1)
            for envelope in (executor_hit, loop_hit):
                del envelope["id"]
                assert envelope["result"].pop("wall_s") >= 0
            assert loop_hit == executor_hit
            assert loop_hit["result"]["cache"] == "hit"
            assert loop_hit["result"]["worker"] is None
            assert loop_hit["result"]["attempts"] == 1
        finally:
            live.close()

    def test_counters_move_as_an_executor_hit_moves_them(self, live):
        """A loop hit moves ``/metrics`` as the pool's own lookup
        (``run_job``, the executor path) moves it."""
        calls = _counted(live)
        _post(live, _hit_spec())
        watched = ("jobs_submitted", "jobs_completed", "cache_hits",
                   "cache_misses", "queue_depth", "peak_queue_depth")

        def read():
            metrics = _metrics(live)["metrics"]
            values = {name: metrics[name] for name in watched}
            values["hit_latency"] = metrics["hit_latency"]["count"]
            values.update({f"cache.{name}": metrics["cache"][name]
                           for name in ("hits", "memory_hits",
                                        "disk_hits", "misses")})
            return values

        def delta(before, after):
            return {name: after[name] - before[name] for name in before}

        start = read()
        assert _post(live, _hit_spec())[1]["result"]["cache"] == "hit"
        loop = read()
        executor = live.server.pool.run_job(JobSpec.from_dict(_hit_spec()))
        assert executor.cache == "hit"
        end = read()
        assert delta(start, loop) == delta(loop, end)
        assert delta(start, loop)["cache_hits"] == 1
        assert delta(start, loop)["cache.memory_hits"] == 1
        assert len(calls) == 1


class TestEveryCacheGetsLoopHits:
    def test_memory_only_cache(self):
        live = start_gateway(workers=0, cache_dir=None)
        try:
            calls = _counted(live)
            assert _post(live, _hit_spec())[1]["result"]["cache"] \
                == "miss"
            assert _post(live, _hit_spec())[1]["result"]["cache"] \
                == "hit"
            assert len(calls) == 1
        finally:
            live.close()
