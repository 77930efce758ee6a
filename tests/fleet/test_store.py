"""Blob store, RemoteStore client (breaker/degradation), FleetCache."""

import threading

import pytest

from repro.fleet.store import FleetCache, RemoteStore, parse_store_url
from repro.service.cache import cache_key

PAYLOAD = {"ok": True, "kind": "run", "payload": {"run": {"value": 42}}}


def _key(suffix="a"):
    return cache_key({"test-blob": suffix})


class TestParseStoreUrl:
    def test_accepts_bare_and_http_forms(self):
        assert parse_store_url("127.0.0.1:7792") == ("127.0.0.1", 7792)
        assert parse_store_url("http://10.0.0.5:80/") == \
            ("10.0.0.5", 80)

    @pytest.mark.parametrize("bad", ["", "host", "host:", ":123",
                                     "https://h:1x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_store_url(bad)


class TestBlobServer:
    def test_put_then_get_round_trips(self, store):
        key = _key("roundtrip")
        status, body = store.request("PUT", f"/blobs/{key}",
                                     body=PAYLOAD)
        assert status == 201 and body["created"] is True
        status, body = store.request("GET", f"/blobs/{key}")
        assert status == 200
        assert body == PAYLOAD

    def test_put_is_put_if_absent(self, store):
        key = _key("absent")
        assert store.request("PUT", f"/blobs/{key}",
                             body=PAYLOAD)[0] == 201
        status, body = store.request("PUT", f"/blobs/{key}",
                                     body={"other": 1})
        assert status == 200 and body["created"] is False
        # The original blob survives: addresses are immutable.
        assert store.request("GET", f"/blobs/{key}")[1] == PAYLOAD

    def test_missing_blob_is_404(self, store):
        assert store.request("GET", f"/blobs/{_key('missing')}")[0] \
            == 404

    def test_malformed_key_is_400(self, store):
        status, body = store.request("GET", "/blobs/not-hex")
        assert status == 400
        assert "64 lowercase hex" in body["error"]["message"]

    def test_non_object_payload_is_400(self, store):
        assert store.request("PUT", f"/blobs/{_key('arr')}",
                             body=[1, 2])[0] == 400

    def test_healthz_and_metrics(self, store):
        assert store.request("GET", "/healthz")[1]["role"] == "store"
        status, body = store.request("GET", "/metrics")
        assert status == 200 and "hits" in body["blobs"]


class TestRemoteStore:
    def test_counters_track_hits_misses_puts(self, store):
        remote = RemoteStore(store.url)
        key = _key("counters")
        assert remote.get(key) is None
        assert remote.put(key, PAYLOAD) is True
        assert remote.get(key) == PAYLOAD
        snap = remote.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1 \
            and snap["puts"] == 1
        assert snap["breaker_open"] is False

    def test_outage_degrades_without_raising(self):
        remote = RemoteStore("127.0.0.1:1", timeout_s=0.2, retries=0,
                             fail_threshold=3, cooldown_s=60.0)
        for _ in range(5):
            assert remote.get(_key("dead")) is None
            assert remote.put(_key("dead"), PAYLOAD) is False
        snap = remote.snapshot()
        assert snap["fallbacks"] == 10
        assert snap["breaker_open"] is True
        # Breaker open: probes are skipped instantly (no error growth).
        assert snap["errors"] == 3

    def test_breaker_closes_on_success(self, store):
        remote = RemoteStore(store.url, timeout_s=2.0, retries=0,
                             fail_threshold=2, cooldown_s=0.0)
        # Trip it against a wrong port, then redirect to the live
        # store: cooldown 0 readmits immediately, success resets.
        remote.port = 1
        remote.get(_key("flip"))
        remote.get(_key("flip"))
        assert remote._consecutive_failures == 2
        remote.port = store.port
        remote.put(_key("flip"), PAYLOAD)
        assert remote._consecutive_failures == 0
        assert remote.get(_key("flip")) == PAYLOAD


class _CountingRemote:
    """A store that holds :data:`PAYLOAD` under every key and counts
    the GETs it answers."""

    timeout_s = 0.1
    retries = 0

    def __init__(self):
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return PAYLOAD


class _HoldThread:
    """A lock that keeps ``thread`` out until ``release`` is set,
    setting ``waiting`` when it arrives."""

    def __init__(self, lock, thread, waiting, release):
        self.lock = lock
        self.thread = thread
        self.waiting = waiting
        self.release = release

    def __enter__(self):
        if threading.current_thread() is self.thread:
            self.waiting.set()
            assert self.release.wait(5)
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestFleetCache:
    def test_local_miss_fills_from_remote_then_hits_locally(
            self, store, tmp_path):
        key = _key("fill")
        RemoteStore(store.url).put(key, PAYLOAD)
        cache = FleetCache(str(tmp_path / "local"),
                           RemoteStore(store.url))
        assert cache.get(key) == PAYLOAD       # remote fill
        assert cache.remote.hits == 1
        assert cache.get(key) == PAYLOAD       # local tier now
        assert cache.remote.hits == 1          # no second fetch

    def test_put_propagates_to_the_store(self, store, tmp_path):
        key = _key("propagate")
        cache = FleetCache(str(tmp_path / "a"), RemoteStore(store.url))
        cache.put(key, PAYLOAD)
        # A second host with a cold local cache sees it.
        other = FleetCache(str(tmp_path / "b"), RemoteStore(store.url))
        assert other.get(key) == PAYLOAD

    def test_concurrent_misses_fetch_remotely_once(self, store,
                                                   tmp_path):
        key = _key("singleflight")
        RemoteStore(store.url).put(key, PAYLOAD)
        cache = FleetCache(str(tmp_path / "local"),
                           RemoteStore(store.url))
        results = [None] * 8
        barrier = threading.Barrier(8)

        def probe(index):
            barrier.wait()
            results[index] = cache.get(key)

        threads = [threading.Thread(target=probe, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == PAYLOAD for result in results)
        # One leader fetched; followers waited and re-probed locally.
        assert cache.remote.hits == 1

    def test_a_late_misser_does_not_fetch_again(self, tmp_path):
        """The interleaving that made the test above flaky, forced: a
        late misser misses locally, and takes the fill lock only after
        the leader filled the local tiers and dropped its gate.  It
        leads the fill then, and finds the payload locally."""
        remote = _CountingRemote()
        cache = FleetCache(str(tmp_path / "local"), remote)
        key = _key("late")
        results = []
        late = threading.Thread(
            target=lambda: results.append(cache.get(key)))
        late_missed = threading.Event()
        leader_done = threading.Event()
        cache._fill_lock = _HoldThread(cache._fill_lock, late,
                                       late_missed, leader_done)
        late.start()
        assert late_missed.wait(5)
        assert cache.get(key) == PAYLOAD          # the leader
        leader_done.set()
        late.join(5)
        assert results == [PAYLOAD]
        assert remote.gets == 1
        assert (cache.misses, cache.hits) == (2, 1)

    def test_store_outage_degrades_to_local_only(self, tmp_path):
        cache = FleetCache(str(tmp_path / "local"),
                           RemoteStore("127.0.0.1:1", timeout_s=0.2,
                                       retries=0))
        key = _key("outage")
        cache.put(key, PAYLOAD)          # remote upload fails silently
        assert cache.get(key) == PAYLOAD  # local tiers still serve
        assert cache.get(_key("absent-outage")) is None
        assert cache.remote.fallbacks >= 1

    def test_snapshot_includes_remote_tier(self, store, tmp_path):
        cache = FleetCache(str(tmp_path / "local"),
                           RemoteStore(store.url))
        snap = cache.snapshot()
        assert snap["remote"]["url"] == store.url


class TestGatewayStoreCounters:
    """``store_*`` in ``/metrics`` are the one cache's remote tier,
    read in place: each probe counted once, however often asked."""

    def test_each_probe_is_counted_once(self, store, tmp_path):
        from repro.service.jobs import JobSpec
        from tests.fleet.conftest import start_gateway

        def store_counters(gateway):
            metrics = gateway.request("GET", "/metrics")[1]["metrics"]
            return {name: metrics[f"store_{name}"]
                    for name in ("hits", "misses", "puts", "fallbacks")}

        spec = JobSpec("run", source="int main(int n) { return n; }",
                       nodes=1, args=[4]).to_dict()
        first = start_gateway(workers=2, cache_dir=str(tmp_path / "a"),
                              store_url=store.url)
        try:
            assert first.request("POST", "/v1/jobs", body=spec)[0] == 200
            cold = {"hits": 0, "misses": 1, "puts": 1, "fallbacks": 0}
            assert store_counters(first) == cold
            assert store_counters(first) == cold      # read, not popped
            # A local hit never reaches the store.
            assert first.request("POST", "/v1/jobs", body=spec)[0] == 200
            assert store_counters(first) == cold
        finally:
            first.close()
        second = start_gateway(workers=2, cache_dir=str(tmp_path / "b"),
                               store_url=store.url)
        try:
            status, body = second.request("POST", "/v1/jobs", body=spec)
            assert status == 200 and body["result"]["cache"] == "hit"
            assert store_counters(second) == {
                "hits": 1, "misses": 0, "puts": 0, "fallbacks": 0}
        finally:
            second.close()

    def test_the_gateway_names_its_pools_store(self, store, gateway):
        """One source of truth: ``store_url`` is given once, to the
        pool, and both status routes read it there."""
        from repro.service.pool import WorkerPool
        from tests.fleet.conftest import start_gateway
        backed = start_gateway(pool=WorkerPool(0, cache_dir=None,
                                               store_url=store.url))
        try:
            for route in ("/healthz", "/metrics"):
                assert backed.request("GET", route)[1]["store"] \
                    == store.url
                assert gateway.request("GET", route)[1]["store"] is None
            assert backed.request("GET", "/metrics")[1]["metrics"][
                "store_url"] == store.url
        finally:
            backed.close()

    def test_unwritable_cache_dir_still_fills_from_the_store(
            self, store, tmp_path):
        """The remote tier holds the payload, the local disk refuses
        it: the job is a hit all the same, and nothing leaks."""
        from repro.service.jobs import JobSpec
        from tests.fleet.conftest import start_gateway
        spec = JobSpec("run", source="int main(int n) { return n; }",
                       nodes=1, args=[5]).to_dict()
        first = start_gateway(workers=1, cache_dir=str(tmp_path / "a"),
                              store_url=store.url)
        try:
            primed = first.request("POST", "/v1/jobs",
                                   body=spec)[1]["result"]
        finally:
            first.close()
        # /dev/null is not a directory: every disk write raises.
        second = start_gateway(workers=1, cache_dir="/dev/null/x",
                               store_url=store.url)
        try:
            for memory_hits in (0, 1):      # from the store, from memory
                status, body = second.request("POST", "/v1/jobs",
                                              body=spec)
                assert status == 200 and body["ok"]
                assert body["result"]["cache"] == "hit"
                assert body["result"]["payload"] == primed["payload"]
                metrics = second.request("GET", "/metrics")[1]["metrics"]
                assert metrics["cache"]["memory_hits"] == memory_hits
                assert metrics["cache"]["put_errors"] == 1
                assert metrics["store_hits"] == 1
                assert metrics["queue_depth"] == 0
                assert metrics["jobs_failed"] == 0
        finally:
            second.close()


class TestGatewayDegradation:
    """Acceptance: killing the store mid-run must not fail jobs."""

    def test_jobs_survive_a_store_outage(self, tmp_path):
        from repro.service.jobs import JobSpec
        from tests.fleet.conftest import start_gateway, start_store

        live_store = start_store(tmp_path / "store")
        gateway = start_gateway(
            workers=0, cache_dir=str(tmp_path / "gw"),
            store_url=live_store.url)
        try:
            spec = JobSpec("run",
                           source="int main(int n) { return n + 1; }",
                           nodes=1, args=[1]).to_dict()
            status, body = gateway.request("POST", "/v1/jobs",
                                           body=spec)
            assert status == 200 and body["ok"]

            live_store.close()  # the outage

            spec2 = JobSpec("run",
                            source="int main(int n) { return n + 2; }",
                            nodes=1, args=[1]).to_dict()
            status, body = gateway.request("POST", "/v1/jobs",
                                           body=spec2, timeout=120)
            assert status == 200 and body["ok"], \
                "job failed during store outage"
            assert body["result"]["payload"]["run"]["value"] == 3
            _, metrics = gateway.request("GET", "/metrics")
            assert metrics["metrics"]["store_fallbacks"] >= 1
        finally:
            gateway.close()
