"""An engine name the product no longer has is refused, in the
structured form of the entry it arrived through, with a message that
lists the engines there are (the one ``ENGINES``)."""

import pytest

from repro.__main__ import main
from repro.config import RunConfig
from repro.earth.interpreter import ENGINES
from repro.errors import EXIT_SERVICE, EXIT_USAGE, UsageError
from repro.service.client import ServiceClient
from repro.service.pool import WorkerPool
from repro.service.server import serve_forever

from tests.fleet.conftest import LiveServer, start_gateway

#: The tier deleted in 2.0.
REMOVED = 'closure'

JOB = {"kind": "run", "source": "int main() { return 7; }",
       "engine": REMOVED}


def _cli(tmp_path, capsys):
    path = tmp_path / "prog.ec"
    path.write_text(JOB["source"])
    with pytest.raises(SystemExit) as info:
        main([str(path), "--run", "--engine", REMOVED])
    assert info.value.code == EXIT_USAGE
    return capsys.readouterr().err


def _run_config(tmp_path, capsys):
    with pytest.raises(UsageError) as direct:
        RunConfig(engine=REMOVED)
    with pytest.raises(UsageError) as parsed:
        RunConfig.from_json({"nodes": 2, "engine": REMOVED})
    assert str(direct.value) == str(parsed.value)
    return str(direct.value)


def _http(tmp_path, capsys):
    gateway = start_gateway(workers=0)
    try:
        status, body = gateway.request("POST", "/v1/jobs", body=JOB)
    finally:
        gateway.close()
    assert status == 400 and body["ok"] is False
    return body["error"]["message"]


def _tcp(tmp_path, capsys):
    server = LiveServer(serve_forever, (WorkerPool(workers=0),),
                        {"port": 0}, "job server")
    with ServiceClient(server.host, server.port, timeout=5) as client:
        response = client.request({"op": "submit", "job": JOB})
        client.shutdown()
    server.thread.join(timeout=10)
    assert not server.thread.is_alive()
    assert response["ok"] is False
    assert response["error"]["type"] == "ServiceError"
    assert response["error"]["code"] == EXIT_SERVICE
    return response["error"]["message"]


@pytest.mark.parametrize("entry", [_cli, _run_config, _http, _tcp],
                         ids=["cli", "runconfig", "http", "tcp"])
def test_removed_engine_is_rejected(entry, tmp_path, capsys):
    message = entry(tmp_path, capsys)
    assert REMOVED in message
    for engine in ENGINES:
        assert engine in message
