"""An engine name the product no longer has is refused, in the
structured form of the entry it arrived through, with a message that
lists the engines there are (the one ``ENGINES``) -- and so is every
other run-option value ``RunConfig`` refuses: at the entry, before any
worker sees the job."""

import pytest

from repro.__main__ import main
from repro.config import RUN_FLAGS, RunConfig
from repro.earth.interpreter import ENGINES
from repro.errors import (
    EXIT_SERVICE,
    EXIT_USAGE,
    ServiceError,
    UsageError,
)
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
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


def _http_refusal(job):
    """POST ``job``; it must come back 400 with the structured error,
    and the pool must not have seen it."""
    gateway = start_gateway(workers=0)

    def submitted():
        status, body = gateway.request("GET", "/metrics")
        assert status == 200
        return body["metrics"]["jobs_submitted"]

    try:
        before = submitted()
        status, body = gateway.request("POST", "/v1/jobs", body=job)
        assert submitted() == before
    finally:
        gateway.close()
    assert status == 400 and body["ok"] is False
    assert body["error"]["type"] == "ServiceError"
    assert body["error"]["code"] == EXIT_SERVICE
    return body["error"]["message"]


def _tcp_refusal(job):
    """The same over the TCP wire: a structured ``ServiceError``."""
    server = LiveServer(serve_forever, (WorkerPool(workers=0),),
                        {"port": 0}, "job server")
    with ServiceClient(server.host, server.port, timeout=5) as client:
        before = client.stats()["metrics"]["jobs_submitted"]
        response = client.request({"op": "submit", "job": job})
        assert client.stats()["metrics"]["jobs_submitted"] == before
        client.shutdown()
    server.thread.join(timeout=10)
    assert not server.thread.is_alive()
    assert response["ok"] is False
    assert response["error"]["type"] == "ServiceError"
    assert response["error"]["code"] == EXIT_SERVICE
    return response["error"]["message"]


def _http(tmp_path, capsys):
    return _http_refusal(JOB)


def _tcp(tmp_path, capsys):
    return _tcp_refusal(JOB)


@pytest.mark.parametrize("entry", [_cli, _run_config, _http, _tcp],
                         ids=["cli", "runconfig", "http", "tcp"])
def test_removed_engine_is_rejected(entry, tmp_path, capsys):
    message = entry(tmp_path, capsys)
    assert REMOVED in message
    for engine in ENGINES:
        assert engine in message


# ---------------------------------------------------------------------------
# Every value RunConfig refuses is refused at the entry
# ---------------------------------------------------------------------------

#: field -> (bad value, a word of the message)
BAD_OPTIONS = {
    "nodes": (0, "nodes"),
    "max_stmts": (-5, "max_stmts"),
    "rcache_line_words": (0, "rcache_line_words"),
    "params": ("nope", "params preset"),
}


def _bad_job(field):
    return {"kind": "run", "source": JOB["source"],
            field: BAD_OPTIONS[field][0]}


def _option_cli(field, tmp_path, capsys):
    path = tmp_path / "prog.ec"
    path.write_text(JOB["source"])
    option = next(option for option, (name, _) in RUN_FLAGS.items()
                  if name == field)
    value = str(BAD_OPTIONS[field][0])
    if field == "params":
        # The driver has no --params; submit refuses it while building
        # the job, before it dials the server.
        assert main(["submit", str(path), option, value]) == EXIT_SERVICE
    else:
        assert main([str(path), "--run", option, value]) == EXIT_USAGE
    return capsys.readouterr().err


def _option_job_spec(field, tmp_path, capsys):
    with pytest.raises(UsageError) as config:
        RunConfig(**{field: BAD_OPTIONS[field][0]})
    with pytest.raises(ServiceError) as direct:
        JobSpec(**_bad_job(field))
    with pytest.raises(ServiceError) as parsed:
        JobSpec.from_dict(_bad_job(field))
    assert str(config.value) == str(direct.value) == str(parsed.value)
    return str(direct.value)


def _option_http(field, tmp_path, capsys):
    return _http_refusal(_bad_job(field))


def _option_tcp(field, tmp_path, capsys):
    return _tcp_refusal(_bad_job(field))


@pytest.mark.parametrize("field", sorted(BAD_OPTIONS))
@pytest.mark.parametrize(
    "entry", [_option_cli, _option_job_spec, _option_http, _option_tcp],
    ids=["cli", "jobspec", "http", "tcp"])
def test_bad_run_option_is_rejected_at_the_entry(entry, field, tmp_path,
                                                 capsys):
    message = entry(field, tmp_path, capsys)
    assert BAD_OPTIONS[field][1] in message
