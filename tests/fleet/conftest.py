"""An in-process blob store for the test suite (the gateway's live
server is ``tests/service/conftest.py``'s)."""

import pytest

from repro.fleet.store import serve_store_forever
from tests.service.conftest import LiveServer


def start_store(root):
    return LiveServer(serve_store_forever, (str(root),), {"port": 0},
                      "store")


@pytest.fixture()
def store(tmp_path):
    """A blob store rooted in tmp."""
    live = start_store(tmp_path / "store")
    yield live
    live.close()
