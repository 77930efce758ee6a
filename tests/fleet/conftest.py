"""In-process fleet servers for the test suite.

The gateway and the blob store both run their real asyncio serve loops
(``serve_gateway_forever`` / ``serve_store_forever``) on daemon
threads, bound to ephemeral ports -- the same code paths the CLI verbs
run, minus the subprocess."""

import threading

import pytest

from repro.fleet.http import http_json, serve_gateway_forever
from repro.fleet.store import serve_store_forever
from repro.service.pool import WorkerPool


class LiveServer:
    """One in-process fleet server (gateway or store) on a thread."""

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
                  store_url=None, pool=None):
    if pool is None:
        pool = WorkerPool(workers, cache_dir=cache_dir,
                          store_url=store_url)
    return LiveServer(serve_gateway_forever, (pool,),
                      {"port": 0, "max_queue_depth": max_queue_depth},
                      "gateway")


def start_store(root):
    return LiveServer(serve_store_forever, (str(root),), {"port": 0},
                      "store")


@pytest.fixture()
def gateway(tmp_path):
    """An inline-execution gateway with a disk cache in tmp."""
    live = start_gateway(workers=0,
                         cache_dir=str(tmp_path / "gateway-cache"))
    yield live
    live.close()


@pytest.fixture()
def store(tmp_path):
    """A blob store rooted in tmp."""
    live = start_store(tmp_path / "store")
    yield live
    live.close()
