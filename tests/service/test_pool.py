"""WorkerPool: its one cache, scheduling, crash/timeout resilience,
determinism."""

import builtins
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.olden.loader import get_benchmark
from repro.service.cache import ArtifactCache
from repro.service.jobs import JobSpec, execute_job
from repro.service.pool import WorkerPool
from tests.service.conftest import start_gateway

SOURCE = "int main(int n) { return n * 2; }"
#: Counts to ``n``: a job that outlasts any test.
SPIN = ("int main(int n) { int i; int s; s = 0;\n"
        "  for (i = 0; i < n; i++) { s = s + 1; }\n  return s; }")


def _echo(value):
    return JobSpec("selftest", selftest={"behavior": "echo",
                                         "value": value})


class TestInlineMode:
    """workers=0 runs jobs in-process -- the serial baseline."""

    def test_run_job(self):
        with WorkerPool(workers=0, cache_dir=None) as pool:
            result = pool.run_job(JobSpec("run", source=SOURCE,
                                          nodes=1, args=[21]))
            assert result.ok and result.payload["run"]["value"] == 42

    def test_inline_mode_hits_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with WorkerPool(workers=0, cache_dir=cache_dir) as pool:
            spec = JobSpec("run", source=SOURCE, nodes=1, args=[3])
            assert pool.run_job(spec).cache == "miss"
            assert pool.run_job(spec).cache == "hit"
            snap = pool.metrics_snapshot()
            assert snap["cache_hits"] == 1
            assert snap["cache"]["hits"] == 1

    def test_batch_order(self):
        with WorkerPool(workers=0, cache_dir=None) as pool:
            results = pool.run_batch([_echo(i) for i in range(5)])
            assert [r.payload["echo"] for r in results] == list(range(5))


class TestOneCache:
    """The cache sits in front of the workers, once, in the parent."""

    A = JobSpec("run", source=SOURCE, nodes=1, args=[1])
    B = JobSpec("run", source=SOURCE, nodes=1, args=[2])

    def test_memory_only_pool_computes_a_job_once(self):
        # Whichever worker computed A, the pool remembers it.
        with WorkerPool(workers=2, cache_dir=None) as pool:
            first = pool.run_batch([self.A, self.B], timeout=60)
            second = pool.run_batch([self.B, self.A], timeout=60)
            assert [r.cache for r in first] == ["miss", "miss"]
            assert [r.cache for r in second] == ["hit", "hit"]
            assert second[0].payload == first[1].payload
            assert second[1].payload == first[0].payload
            snap = pool.metrics_snapshot()
            assert snap["cache_misses"] == 2 and snap["cache_hits"] == 2
            assert snap["cache"]["memory_hits"] == 2

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_repeat_inside_one_batch(self, workers):
        # Inline, a miss is stored before the next lookup; over
        # workers every lookup of a batch precedes every store.
        with WorkerPool(workers, cache_dir=None) as pool:
            batch = pool.run_batch([self.A, self.A], timeout=60)
            assert [r.cache for r in batch] == \
                ["miss", "hit" if workers == 0 else "miss"]
            assert batch[0].payload == batch[1].payload
            assert pool.run_job(self.A, timeout=60).cache == "hit"

    def test_inline_submit_stores_without_a_wait(self):
        with WorkerPool(workers=0, cache_dir=None) as pool:
            pool.submit(self.A)             # never waited for
            assert pool.run_job(self.A).cache == "hit"
            assert pool.metrics_snapshot()["cache"]["puts"] == 1

    def test_hit_is_answered_while_every_worker_is_busy(self):
        with WorkerPool(workers=1, cache_dir=None) as pool:
            primed = pool.run_job(self.A, timeout=60)
            assert primed.cache == "miss" and primed.worker == 0
            pool.submit(JobSpec("selftest",
                                selftest={"behavior": "sleep",
                                          "seconds": 30}))
            begin = time.monotonic()
            hit = pool.run_job(self.A, timeout=5)
            assert time.monotonic() - begin < 1.0
            assert hit.cache == "hit" and hit.worker is None
            assert hit.payload == primed.payload

    @pytest.mark.parametrize("workers", [0, 1])
    def test_unwritable_cache_dir_does_not_fail_the_job(self, workers):
        # /dev/null is not a directory: every disk write raises.
        with WorkerPool(workers, cache_dir="/dev/null/x") as pool:
            result = pool.run_job(self.A, timeout=60)
            assert result.ok and result.cache == "miss"
            assert result.payload["run"]["value"] == 2
            cache = pool.metrics_snapshot()["cache"]
            assert cache["put_errors"] == 1 and cache["puts"] == 1
            # The memory tier kept it.
            assert pool.run_job(self.A, timeout=60).cache == "hit"

    def test_unwritable_cache_dir_in_process(self):
        cache = ArtifactCache("/dev/null/x")
        result = execute_job(self.A, cache)
        assert result.ok and result.cache == "miss"
        assert result.payload["run"]["value"] == 2
        assert cache.snapshot()["put_errors"] == 1

    def test_admitted_job_is_keyed_once(self, monkeypatch):
        calls = []
        canonical_key = JobSpec.canonical_key

        def counting(spec):
            calls.append(spec.kind)
            return canonical_key(spec)

        monkeypatch.setattr(JobSpec, "canonical_key", counting)
        live = start_gateway(workers=0)
        try:
            _, response = live.request("POST", "/v1/jobs",
                                       body=self.A.to_dict())
        finally:
            live.close()
        assert response["result"]["cache"] == "miss"
        assert response["result"]["key"] == canonical_key(self.A)
        assert calls == ["run"]

    def test_admitting_an_olden_job_opens_no_file(self, monkeypatch):
        """A catalog source is read once per process: after that, the
        key of an Olden miss and of its hit are taken from memory."""
        spec = JobSpec("compile", benchmark="power", small=True)
        get_benchmark("power").source()       # the process's one read
        opened = []
        real_open = builtins.open

        def spy(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        live = start_gateway(workers=0)
        monkeypatch.setattr(builtins, "open", spy)
        try:
            miss, hit = [live.request("POST", "/v1/jobs",
                                      body=spec.to_dict())[1]
                         for _ in range(2)]
        finally:
            monkeypatch.undo()
            live.close()
        assert [miss["result"]["cache"], hit["result"]["cache"]] == \
            ["miss", "hit"]
        assert opened == []

    def test_concurrent_callers_lose_no_job(self):
        """More caller threads than cores, hits and misses mixed: every
        job is answered and every one is counted exactly once."""
        specs = [JobSpec("run", source=SOURCE, nodes=1, args=[n])
                 for n in range(4)]
        threads, rounds = 8, 6
        values = [[] for _ in range(threads)]

        def caller(index, pool):
            for step in range(rounds):
                n = (index + step) % len(specs)
                result = pool.run_job(specs[n], timeout=60)
                values[index].append(
                    result.ok and result.payload["run"]["value"] == 2 * n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(workers=2, cache_dir=None) as pool:
                callers = [threading.Thread(target=caller,
                                            args=(i, pool), daemon=True)
                           for i in range(threads)]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(timeout=120)
                assert not any(t.is_alive() for t in callers)
                snap = pool.metrics_snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert values == [[True] * rounds] * threads
        total = threads * rounds
        assert snap["jobs_submitted"] == snap["jobs_completed"] == total
        assert snap["cache_hits"] + snap["cache_misses"] == total
        assert snap["cache_hits"] == snap["cache"]["hits"]
        assert snap["cache"]["puts"] == snap["cache_misses"]
        assert snap["queue_depth"] == 0 and snap["jobs_failed"] == 0

    def test_envelope_is_the_same_wherever_it_is_computed(self):
        def run_twice(run):
            miss, hit = run(self.A).to_dict(), run(self.A).to_dict()
            for envelope in (miss, hit):
                assert envelope.pop("wall_s") > 0
            return miss, hit

        cache = ArtifactCache(None)
        in_process = run_twice(lambda spec: execute_job(spec, cache))
        for workers in (0, 1):
            with WorkerPool(workers, cache_dir=None) as pool:
                miss, hit = run_twice(
                    lambda spec: pool.run_job(spec, timeout=60))
            assert miss.pop("worker") == (None if workers == 0 else 0)
            assert (miss | {"worker": None}, hit) == in_process


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ServiceError):
            WorkerPool(workers=-1)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ServiceError):
            WorkerPool(workers=1, max_attempts=0)

    def test_submit_after_close_rejected(self):
        pool = WorkerPool(workers=0, cache_dir=None)
        pool.start()
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.submit(_echo(1))

    def test_wait_for_unknown_job_rejected(self):
        with WorkerPool(workers=1, cache_dir=None) as pool:
            with pytest.raises(ServiceError, match="unknown job"):
                pool.wait(999, timeout=5)


class TestProcessPool:
    def test_batch_is_in_submission_order(self):
        with WorkerPool(workers=2, cache_dir=None) as pool:
            results = pool.run_batch([_echo(i) for i in range(8)],
                                     timeout=60)
            assert [r.payload["echo"] for r in results] == list(range(8))

    def test_worker_ids_are_recorded(self):
        with WorkerPool(workers=2, cache_dir=None) as pool:
            results = pool.run_batch([_echo(i) for i in range(6)],
                                     timeout=60)
            assert {r.worker for r in results} <= {0, 1}

    def test_pooled_run_matches_inline(self, tmp_path):
        spec = JobSpec("run", source=SOURCE, nodes=2, args=[5])
        with WorkerPool(workers=0, cache_dir=None) as inline_pool:
            inline = inline_pool.run_job(spec)
        with WorkerPool(workers=2, cache_dir=None) as pool:
            pooled = pool.run_job(spec, timeout=60)
        assert pooled.payload == inline.payload

    def test_shared_disk_cache_across_workers(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = JobSpec("run", source=SOURCE, nodes=1, args=[7])
        with WorkerPool(workers=1, cache_dir=cache_dir) as pool:
            assert pool.run_job(spec, timeout=60).cache == "miss"
        # A different pool (fresh workers, fresh memory tiers) hits.
        with WorkerPool(workers=2, cache_dir=cache_dir) as pool:
            assert pool.run_job(spec, timeout=60).cache == "hit"

    def test_job_error_does_not_kill_the_pool(self):
        with WorkerPool(workers=1, cache_dir=None) as pool:
            bad = pool.run_job(JobSpec("compile", source="int main( {"),
                               timeout=60)
            assert not bad.ok and bad.error["code"] == 3
            good = pool.run_job(_echo("still alive"), timeout=60)
            assert good.ok and good.payload["echo"] == "still alive"


class TestResilience:
    def test_crash_exhausts_attempts_then_fails(self):
        with WorkerPool(workers=1, cache_dir=None, max_attempts=2,
                        backoff_s=0.01) as pool:
            crash = JobSpec("selftest",
                            selftest={"behavior": "crash"})
            result = pool.run_job(crash, timeout=60)
            assert not result.ok
            assert "gave up after 2 attempt(s)" in \
                result.error["message"]
            snap = pool.metrics_snapshot()
            assert snap["worker_crashes"] >= 2
            assert snap["jobs_requeued"] == 1

    def test_pool_survives_a_crash(self):
        with WorkerPool(workers=1, cache_dir=None, max_attempts=1,
                        backoff_s=0.01) as pool:
            crash = JobSpec("selftest",
                            selftest={"behavior": "crash"})
            assert not pool.run_job(crash, timeout=60).ok
            after = pool.run_job(_echo(42), timeout=60)
            assert after.ok and after.payload["echo"] == 42

    def test_timeout_terminates_and_fails(self):
        with WorkerPool(workers=1, cache_dir=None, timeout_s=0.3,
                        max_attempts=2, backoff_s=0.01) as pool:
            slow = JobSpec("selftest",
                           selftest={"behavior": "sleep",
                                     "seconds": 30})
            result = pool.run_job(slow, timeout=60)
            assert not result.ok
            assert result.error["code"] == 6
            assert pool.metrics_snapshot()["job_timeouts"] >= 1
            # The replacement worker serves the next job.
            assert pool.run_job(_echo(1), timeout=60).ok

    def test_crash_survivors_complete_in_batch(self):
        with WorkerPool(workers=2, cache_dir=None, max_attempts=1,
                        backoff_s=0.01) as pool:
            jobs = [_echo(0),
                    JobSpec("selftest", selftest={"behavior": "crash"}),
                    _echo(2), _echo(3)]
            results = pool.run_batch(jobs, timeout=60)
            assert results[0].ok and results[2].ok and results[3].ok
            assert not results[1].ok

    def test_close_fails_pending_jobs(self, tmp_path):
        """The worker still computing a job close() failed is stopped
        at once, and leaves the disk cache no entry to read: only the
        parent stores, by an atomic rename."""
        spin = JobSpec("run", source=SPIN, args=[10 ** 9])
        pool = WorkerPool(workers=1, cache_dir=str(tmp_path)).start()
        job_id = pool.submit(spin)
        time.sleep(0.3)                 # the worker is computing it
        begin = time.monotonic()
        pool.close()
        assert time.monotonic() - begin < 1.0
        result = pool.wait(job_id, timeout=5)
        assert not result.ok
        assert "closed" in result.error["message"]
        assert [path for path in tmp_path.rglob("*") if path.is_file()] \
            == []
        cache = ArtifactCache(str(tmp_path))
        assert cache.get(spin.canonical_key()) is None
        assert cache.snapshot()["corrupt_entries"] == 0


class TestMetrics:
    def test_snapshot_shape(self):
        with WorkerPool(workers=1, cache_dir=None) as pool:
            pool.run_batch([_echo(i) for i in range(3)], timeout=60)
            snap = pool.metrics_snapshot()
            assert snap["jobs_submitted"] == 3
            assert snap["jobs_completed"] == 3
            assert snap["jobs_failed"] == 0
            assert snap["workers"] == 1
            assert snap["queue_depth"] == 0
            assert snap["latency"]["count"] == 3
