"""ServiceClient transport resilience: reconnect + bounded backoff.

A real :class:`ServiceClient` against a scripted HTTP server that
misbehaves in controlled ways -- dropping the connection where the
response should be, or part-way through it -- so the retry path is
exercised end to end, not mocked."""

import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient


class FlakyServer:
    """Accepts connections and reads one HTTP request from each; the
    first ``failures`` are answered with a hard close (``truncate``:
    after half a response), later ones with a canned JSON body."""

    def __init__(self, failures: int, truncate: bool = False):
        self.failures = failures
        self.truncate = truncate
        self.requests_seen = []
        self._lock = threading.Lock()
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn):
        with conn:
            handle = conn.makefile("rwb")
            request_line = handle.readline().decode()
            length = 0
            for line in iter(handle.readline, b"\r\n"):
                name, _, value = line.decode().partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            handle.read(length)
            with self._lock:
                self.requests_seen.append(request_line.split()[:2])
                fail = self.failures > 0
                if fail:
                    self.failures -= 1
            body = json.dumps({"ok": True, "pong": True}).encode()
            head = (f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}"
                    f"\r\nConnection: close\r\n\r\n").encode()
            if not fail:
                handle.write(head + body)
                handle.flush()
                return
            if self.truncate:
                handle.write(head + body[:3])
                handle.flush()
            # Hard close mid-request: the client sees EOF (or
            # ECONNRESET) where the response should be.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")

    def close(self):
        self._listener.close()


@pytest.fixture()
def flaky():
    """``flaky(failures=N)`` starts a :class:`FlakyServer` that is
    closed after the test."""
    servers = []

    def start(**behaviour):
        servers.append(FlakyServer(**behaviour))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


@pytest.mark.parametrize("truncate", [False, True],
                         ids=["no-response", "half-a-response"])
def test_retries_after_mid_read_eof(flaky, truncate):
    server = flaky(failures=2, truncate=truncate)
    with ServiceClient(server.host, server.port, timeout=5.0,
                       retries=3, retry_backoff_s=0.01) as client:
        assert client.ping()["pong"] is True
    # One logical request, three wire sends: two eaten by the flaky
    # server, one answered.
    assert server.requests_seen == [["GET", "/healthz"]] * 3


def test_retry_budget_is_bounded(flaky):
    server = flaky(failures=100)
    with ServiceClient(server.host, server.port, timeout=5.0,
                       retries=2, retry_backoff_s=0.01) as client:
        with pytest.raises(ServiceError, match="after 3 attempt"):
            client.ping()
    assert len(server.requests_seen) == 3


def test_retries_disabled_surface_first_failure(flaky):
    server = flaky(failures=1)
    with ServiceClient(server.host, server.port, timeout=5.0,
                       retries=0) as client:
        with pytest.raises(ServiceError, match="after 1 attempt"):
            client.ping()
    assert len(server.requests_seen) == 1


def test_shutdown_is_never_retried(flaky):
    server = flaky(failures=100)
    with ServiceClient(server.host, server.port, timeout=5.0,
                       retries=5, retry_backoff_s=0.01) as client:
        with pytest.raises(ServiceError):
            client.shutdown()
    # A dropped connection after shutdown is not re-sent: exactly one
    # wire request no matter the retry budget.
    assert server.requests_seen == [["POST", "/v1/shutdown"]]


def test_healthy_path_takes_one_attempt(flaky):
    server = flaky(failures=0)
    with ServiceClient(server.host, server.port, timeout=5.0,
                       retries=3) as client:
        assert client.ping()["pong"] is True
        assert client.ping()["pong"] is True
    assert len(server.requests_seen) == 2


def test_reconnect_reaches_replacement_server(flaky):
    """Every attempt dials afresh, so a server that died between
    requests (here: first connection hard-closed) is reachable again
    without the caller doing anything."""
    server = flaky(failures=1)
    with ServiceClient(server.host, server.port, timeout=5.0,
                       retries=2, retry_backoff_s=0.01) as client:
        assert client.ping()["pong"] is True
        assert client.stats()["pong"] is True
