"""The gateway as a real process, driven through the CLI verbs.

One HTTP gateway (``python -m repro serve``, two workers) comes up as
an OS process and takes ``submit`` and ``batch --connect`` through
:func:`repro.__main__.main`: a resubmitted job is replayed
bit-identically by the gateway's one cache without reaching a worker, a
bundle sweep arrives as ``run`` legs, ``/metrics`` answers, and the
process tree shuts down.  What the gateway computes and refuses is
tier-1's (``tests/service/test_http.py``, ``tests/service/test_pool.py``,
``tests/integration/test_engine_rejection.py``).

Three processes and a few seconds: marked ``ci_only``, run by CI's
``contracts`` job (``PYTHONPATH=src python -m pytest -q -m ci_only
tests/service/test_fleet_smoke.py``).
"""

import json

import pytest

from repro.__main__ import main
from repro.fleet.loadgen import launch_gateway


def _json_verb(capsys, argv):
    """Run one CLI verb with ``--json``; its parsed stdout."""
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.ci_only
def test_a_gateway_serves_the_cli_verbs(tmp_path, capsys):
    gateway = launch_gateway(str(tmp_path / "cache"), workers=2)
    try:
        submit = ["submit", "--benchmark", "power", "--kind", "run",
                  "--small", "--nodes", "2", "--port", str(gateway.port)]
        cold = _json_verb(capsys, submit)
        warm = _json_verb(capsys, submit)
        assert cold["ok"] and warm["ok"]
        assert (cold["cache"], warm["cache"]) == ("miss", "hit")
        assert warm["payload"] == cold["payload"], "replay diverged"
        # The hit was answered by the gateway's one cache, in the
        # parent: it never reached a worker.
        assert warm["worker"] is None, warm["worker"]

        # The default sweep is the paper's three configurations, one
        # `run` leg each: two benchmarks at one count is six results.
        batch = _json_verb(capsys, [
            "batch", "--benchmarks", "tsp,health", "--nodes", "2",
            "--small", "--connect", f"{gateway.host}:{gateway.port}"])
        assert len(batch) == 6 and all(r["ok"] for r in batch)
        assert all(r["kind"] == "run" for r in batch)

        metrics = gateway.metrics()["metrics"]
        assert metrics["workers"] == 2, metrics
        assert metrics["cache"]["memory_hits"] >= 1, metrics["cache"]
    finally:
        gateway.shutdown()
    assert gateway.proc.returncode is not None
