"""In-process servers for the test suite.

A server runs its real asyncio serve loop (``serve_gateway_forever``;
the blob store's ``serve_store_forever`` in ``tests/fleet``) on a
daemon thread, bound to an ephemeral port -- the same code paths the
CLI verbs run, minus the subprocess."""

import threading

import pytest

from repro.service.client import http_json
from repro.service.http import serve_gateway_forever
from repro.service.pool import WorkerPool


class LiveServer:
    """One in-process server (gateway or store) on a thread."""

    def __init__(self, target, args, kwargs, label):
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        kwargs = dict(kwargs, ready_callback=on_ready)
        self.thread = threading.Thread(target=target, args=args,
                                       kwargs=kwargs, daemon=True)
        self.thread.start()
        assert ready.wait(timeout=20), f"{label} never came up"
        self.server = holder["server"]
        self.host = self.server.host
        self.port = self.server.port

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def request(self, method, path, body=None, timeout=60.0):
        return http_json(method, self.host, self.port, path,
                         body=body, timeout=timeout)

    def close(self):
        try:
            self.request("POST", "/v1/shutdown", body={}, timeout=5.0)
        except OSError:
            pass
        self.thread.join(timeout=10)


def start_gateway(workers=0, cache_dir=None, max_queue_depth=64,
                  pool=None):
    if pool is None:
        pool = WorkerPool(workers, cache_dir=cache_dir)
    return LiveServer(serve_gateway_forever, (pool,),
                      {"port": 0, "max_queue_depth": max_queue_depth},
                      "gateway")


@pytest.fixture()
def gateway(tmp_path):
    """An inline-execution gateway with a disk cache in tmp."""
    live = start_gateway(workers=0,
                         cache_dir=str(tmp_path / "gateway-cache"))
    yield live
    live.close()
