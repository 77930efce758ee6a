"""HttpGateway: routes, status mapping, framing, keep-alive."""

import json
import socket

import pytest

from repro.harness.pipeline import PIPELINE_VERSION
from repro.service.jobs import JobSpec

SOURCE = "int main(int n) { return n + 1; }"


def _run_spec(value=41):
    return JobSpec("run", source=SOURCE, nodes=1,
                   args=[value]).to_dict()


class TestRoutes:
    def test_healthz(self, gateway):
        status, body = gateway.request("GET", "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["role"] == "gateway"
        assert body["version"] == PIPELINE_VERSION

    def test_metrics_is_a_service_metrics_snapshot(self, gateway):
        status, body = gateway.request("GET", "/metrics")
        assert status == 200
        metrics = body["metrics"]
        assert "jobs_completed" in metrics
        assert "http_requests" in metrics
        assert body["inflight"] == 0

    def test_submit_round_trip(self, gateway):
        status, body = gateway.request("POST", "/v1/jobs",
                                       body=_run_spec(41))
        assert status == 200
        assert body["ok"] is True
        assert body["result"]["payload"]["run"]["value"] == 42
        assert body["result"]["cache"] == "miss"

    def test_second_submit_hits_the_cache(self, gateway):
        spec = _run_spec(7)
        _, first = gateway.request("POST", "/v1/jobs", body=spec)
        _, second = gateway.request("POST", "/v1/jobs", body=spec)
        assert first["result"]["cache"] == "miss"
        assert second["result"]["cache"] == "hit"
        assert second["result"]["payload"] == first["result"]["payload"]

    def test_a_job_has_no_id_and_no_route(self, gateway):
        # Nothing is kept of a job once it is answered.
        _, submitted = gateway.request("POST", "/v1/jobs",
                                       body=_run_spec(2))
        assert set(submitted) == {"ok", "singleflight", "result"}
        status, body = gateway.request("GET", "/v1/jobs/0")
        assert status == 404
        assert body["error"]["type"] == "NotFound"


class TestGatewayCache:
    """``/metrics`` carries the pool's one cache at every worker count."""

    def test_two_worker_gateway_reports_its_cache(self, tmp_path):
        from tests.service.conftest import start_gateway
        live = start_gateway(workers=2, cache_dir=str(tmp_path / "d"))
        try:
            spec = _run_spec(5)
            assert live.request("POST", "/v1/jobs",
                                body=spec)[1]["result"]["cache"] == "miss"
            hit = live.request("POST", "/v1/jobs", body=spec)[1]["result"]
            assert hit["cache"] == "hit" and hit["worker"] is None
            metrics = live.request("GET", "/metrics")[1]["metrics"]
            assert metrics["workers"] == 2
            cache = metrics["cache"]
            assert {"memory_hits", "disk_hits", "evictions",
                    "corrupt_entries", "put_errors"} <= set(cache)
            assert cache["memory_hits"] == 1 and cache["puts"] == 1
            assert not [name for name in metrics
                        if name.startswith("store")], metrics
        finally:
            live.close()

    def test_corrupt_entry_is_recomputed_and_counted(self, tmp_path):
        import os
        from tests.service.conftest import start_gateway
        root = str(tmp_path / "d")
        spec = _run_spec(6)
        first = start_gateway(workers=2, cache_dir=root)
        try:
            primed = first.request("POST", "/v1/jobs",
                                   body=spec)[1]["result"]
        finally:
            first.close()
        key = primed["key"]
        path = os.path.join(root, "objects", key[:2], f"{key}.json")
        with open(path, "r+") as handle:
            handle.truncate(10)
        second = start_gateway(workers=2, cache_dir=root)
        try:
            again = second.request("POST", "/v1/jobs",
                                   body=spec)[1]["result"]
            assert again["cache"] == "miss"
            assert again["payload"] == primed["payload"]
            metrics = second.request("GET", "/metrics")[1]["metrics"]
            assert metrics["cache"]["corrupt_entries"] == 1
        finally:
            second.close()

    def test_unwritable_cache_dir_does_not_fail_the_job(self):
        from tests.service.conftest import start_gateway
        live = start_gateway(workers=1, cache_dir="/dev/null/x")
        try:
            status, body = live.request("POST", "/v1/jobs",
                                        body=_run_spec(7))
            assert status == 200 and body["ok"]
            assert body["result"]["cache"] == "miss"
            assert body["result"]["payload"]["run"]["value"] == 8
            metrics = live.request("GET", "/metrics")[1]["metrics"]
            assert metrics["cache"]["put_errors"] == 1
            assert metrics["jobs_failed"] == 0
        finally:
            live.close()

    def test_hit_is_answered_behind_a_backlog_of_misses(self):
        """More misses in flight than ``max(4, 2 * workers)`` -- the
        thread count admission's executor once had: every admitted job
        has a thread to wait in, so the hit does not queue for one."""
        import threading
        import time
        from tests.service.conftest import start_gateway
        live = start_gateway(workers=1)
        sleepers = 6

        def park(n):
            try:
                live.request("POST", "/v1/jobs", timeout=60, body=JobSpec(
                    "selftest", selftest={"behavior": "sleep",
                                          "seconds": 30 + n}).to_dict())
            except OSError:     # the gateway closes under it
                pass

        try:
            spec = _run_spec(8)
            primed = live.request("POST", "/v1/jobs", body=spec)[1]["result"]
            assert primed["cache"] == "miss"
            for n in range(sleepers):
                threading.Thread(target=park, args=(n,),
                                 daemon=True).start()
            for _ in range(500):
                if live.request("GET", "/metrics")[1]["inflight"] == sleepers:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("the sleepers were never admitted")
            begin = time.monotonic()
            hit = live.request("POST", "/v1/jobs", body=spec)[1]["result"]
            assert time.monotonic() - begin < 1.0
            assert hit["cache"] == "hit" and hit["worker"] is None
            assert hit["payload"] == primed["payload"]
        finally:
            live.close()


class TestErrorMapping:
    def test_unknown_route_is_404(self, gateway):
        status, body = gateway.request("GET", "/v2/everything")
        assert status == 404
        assert body["ok"] is False

    def test_wrong_method_is_405(self, gateway):
        status, body = gateway.request("GET", "/v1/jobs")
        assert status == 405
        assert body["error"]["type"] == "MethodNotAllowed"

    def test_malformed_body_is_400(self, gateway):
        status, body = gateway.request("POST", "/v1/jobs",
                                       body="not a job")
        assert status == 400
        assert body["ok"] is False

    @pytest.mark.parametrize("kind", ["transmogrify", "three-way",
                                      "four-way"])
    def test_unknown_job_kind_is_400(self, gateway, kind):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": kind, "benchmark": "power", "small": True})
        assert status == 400
        assert body["error"]["message"] == (
            f"unknown job kind {kind!r} (known: compile, run, selftest)")

    @pytest.mark.parametrize("key,value", [
        ("reorder_fields", True), ("config", "simple-baseline"),
        ("opt", "probabilistic")])
    def test_retired_key_is_400(self, gateway, key, value):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": "compile", "source": SOURCE, key: value})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"
        assert body["error"]["message"] \
            == f"unknown job spec fields: ['{key}']"

    @pytest.mark.parametrize("key,value,message", [
        ("optimize", "no", "optimize must be a bool, got 'no'"),
        ("small", 1, "small must be a bool, got 1")])
    def test_a_switch_that_is_not_a_bool_is_400(self, gateway, key,
                                                value, message):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": "run", "benchmark": "power", key: value})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"
        assert body["error"]["message"] == message

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_args_are_400(self, gateway, bad):
        """The request body spells ``NaN`` / ``Infinity``, which the
        gateway's JSON parser accepts: the refusal names ``args``."""
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": "run", "source": SOURCE, "args": [bad]})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"
        assert body["error"]["message"].startswith("args must be finite")

    @pytest.mark.parametrize("job,message", [
        ({"kind": "run", "source": SOURCE, "nodes": 10**7},
         "nodes must be <= "),
        ({"kind": "run", "source": SOURCE, "max_stmts": 10**18},
         "max_stmts must be <= 200000000"),
        ({"kind": "compile", "benchmark": "treeadd", "selftest": "x"},
         "selftest must be an object, got str"),
        ({"kind": "selftest",
          "selftest": {"behavior": "echo", "value": float("nan")}},
         "job spec holds a non-finite number (nan)")],
        ids=["nodes", "max-stmts", "selftest-str", "echo-nan"])
    def test_a_fuzz_found_spec_is_400(self, gateway, job, message):
        """Refused at admission, by name: no worker allocates 10**7
        nodes or spends 10**18 statements, and no NaN is echoed back as
        non-standard JSON."""
        status, body = gateway.request("POST", "/v1/jobs", body=job)
        assert status == 400
        assert body["error"]["type"] == "ServiceError"
        assert body["error"]["message"].startswith(message)
        metrics = gateway.request("GET", "/metrics")[1]["metrics"]
        assert metrics["jobs_submitted"] == 0

    @pytest.mark.parametrize("bad", [2**31, 10**400], ids=["2**31", "1e400"])
    def test_out_of_range_int_args_are_400(self, gateway, bad):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": "run", "source": SOURCE, "args": [bad]})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"
        assert body["error"]["message"].startswith(
            "args must be 32-bit ints")

    def test_out_of_range_float_arg_is_a_422_run_error(self, tmp_path):
        """A float is admitted (its conversion is the engine's) and the
        run refuses it in the worker, naming the parameter."""
        from tests.service.conftest import start_gateway
        live = start_gateway(workers=1, cache_dir=str(tmp_path / "d"))
        try:
            status, body = live.request("POST", "/v1/jobs",
                                        body=_run_spec(1e300))
        finally:
            live.close()
        assert status == 422
        error = body["result"]["error"]
        assert (error["type"], error["code"]) == ("InterpreterError", 4)
        assert error["message"].startswith(
            "main: argument n = 1e+300 is outside the C int range")

    def test_strict_nil_reads_of_a_speculating_program_is_400(self,
                                                              gateway):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body=JobSpec("run", benchmark="treeadd", small=True,
                         strict_nil_reads=True).to_dict())
        assert status == 400
        assert body["result"]["error"]["type"] == "UsageError"
        assert body["result"]["error"]["code"] == 2

    def test_compile_failure_is_422_with_job_error(self, gateway):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body=JobSpec("compile", source="int main( {").to_dict())
        assert status == 422
        assert body["ok"] is False
        # The job-level error is the same structured object the CLI
        # produces (code 3 = compile error).
        assert body["result"]["error"]["code"] == 3

    def test_an_inline_crash_is_a_structured_error(self, gateway):
        """A gateway computing inline has no worker to crash: the job
        fails, and the gateway goes on serving."""
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": "selftest", "selftest": {"behavior": "crash"}})
        assert status == 503 and body["ok"] is False
        assert body["result"]["error"]["type"] == "ServiceError"
        assert gateway.request("GET", "/healthz")[0] == 200

    @pytest.mark.parametrize("selftest", [
        {"behavior": "sleep", "seconds": 10**9},
        {"behavior": "crash", "exit_code": 0}], ids=["sleep", "crash"])
    def test_a_selftest_that_would_not_end_is_400(self, gateway,
                                                  selftest):
        status, body = gateway.request(
            "POST", "/v1/jobs",
            body={"kind": "selftest", "selftest": selftest})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"

    def test_http_error_counter_increments(self, gateway):
        gateway.request("GET", "/missing")
        _, metrics = gateway.request("GET", "/metrics")
        assert metrics["metrics"]["http_errors"] >= 1
        assert metrics["metrics"]["http_requests"] >= 2


class TestWireFraming:
    """Drive raw HTTP bytes at the asyncio parser."""

    def _raw(self, gateway, payload: bytes) -> bytes:
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        return data

    def test_post_without_content_length_is_411(self, gateway):
        response = self._raw(
            gateway, b"POST /v1/jobs HTTP/1.1\r\n"
                     b"Host: x\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 411 ")

    def test_chunked_bodies_are_501(self, gateway):
        response = self._raw(
            gateway, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 501 ")

    def test_garbage_request_line_is_400(self, gateway):
        response = self._raw(gateway, b"NONSENSE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_a_body_over_the_job_bound_is_413(self, gateway):
        """The framing reads the bound a spec's source has; nothing of
        the body is read."""
        length = JobSpec.MAX_SOURCE_BYTES + 1
        response = self._raw(
            gateway, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: %d\r\n\r\n{}" % length)
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b'"PayloadTooLarge"' in response

    def test_body_shorter_than_content_length_is_400(self, gateway):
        response = self._raw(
            gateway, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 50\r\n\r\n{}")
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_non_ascii_path_is_a_structured_404(self, gateway):
        # Whatever bytes the path carries, the answer is a response,
        # never a crashed connection task.
        response = self._raw(
            gateway, b"GET /v1/jobs/\xb2 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 404 ")
        assert b'"NotFound"' in response

    def test_raising_handler_is_a_structured_500(self, gateway,
                                                 monkeypatch):
        async def full_disk(request):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(gateway.server, "_route", full_disk)
        response = self._raw(
            gateway, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                     b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 500 ")
        assert b"Connection: close" in head
        # One answer, then the connection is closed: the pipelined
        # second request is never served.
        assert json.loads(body) == {"ok": False, "error": {
            "type": "InternalError", "code": 6,
            "message": "OSError: [Errno 28] No space left on device"}}
        monkeypatch.undo()
        status, health = gateway.request("GET", "/healthz")
        assert status == 200 and health["ok"] is True
        _, metrics = gateway.request("GET", "/metrics")
        assert metrics["metrics"]["http_errors"] == 1

    def test_keep_alive_serves_multiple_requests(self, gateway):
        request = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            for _ in range(3):
                sock.sendall(request)
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(65536)
                headers, _, rest = head.partition(b"\r\n\r\n")
                assert b"200 OK" in headers.split(b"\r\n")[0]
                length = int([line.split(b":")[1] for line
                              in headers.split(b"\r\n")
                              if line.lower().startswith(
                                  b"content-length")][0])
                while len(rest) < length:
                    rest += sock.recv(65536)
                assert json.loads(rest[:length])["ok"] is True

    def test_connection_close_is_honored(self, gateway):
        response = self._raw(
            gateway, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                     b"Connection: close\r\n\r\n")
        assert b"Connection: close" in response


class TestShutdown:
    def test_shutdown_route_stops_the_server(self, tmp_path):
        from tests.service.conftest import start_gateway
        live = start_gateway(workers=0)
        status, body = live.request("POST", "/v1/shutdown", body={})
        assert status == 200 and body["shutdown"] is True
        live.thread.join(timeout=10)
        assert not live.thread.is_alive()
        with pytest.raises(OSError):
            live.request("GET", "/healthz", timeout=2.0)
