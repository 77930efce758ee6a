"""The blob store server and its RemoteStore client."""

import pytest

from repro.fleet.loadgen import free_port
from repro.fleet.store import RemoteStore, parse_store_url
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
    def test_put_then_get_round_trips(self, store):
        remote = RemoteStore(store.url)
        key = _key("client")
        assert remote.get(key) is None
        remote.put(key, PAYLOAD)
        assert remote.get(key) == PAYLOAD
        remote.put(key, {"other": 1})         # put-if-absent
        assert remote.get(key) == PAYLOAD

    def test_a_dead_store_raises(self):
        """Nothing falls back: a probe of a store that is not there
        fails instead of timing a miss."""
        remote = RemoteStore(f"127.0.0.1:{free_port()}", timeout_s=0.5)
        with pytest.raises(OSError):
            remote.get(_key("dead"))
        with pytest.raises(OSError):
            remote.put(_key("dead"), PAYLOAD)

    def test_a_refused_request_raises(self, store):
        from repro.errors import ServiceError
        with pytest.raises(ServiceError, match="answered 400"):
            RemoteStore(store.url).get("not-hex")
