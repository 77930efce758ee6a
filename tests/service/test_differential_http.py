"""Differential acceptance: the served path returns payloads
byte-identical to the in-process pipeline.

For one clean and one faulted benchmark on the default engine (a job
is one compile and at most one run, so the wire cannot vary the answer
per benchmark, engine or fault plan; every engine and fault profile is
pinned in-process by ``tests/chaos/test_run_golden.py``), the payloads
the HTTP gateway answers (``POST /v1/jobs``) for the three
configurations' ``run`` legs must be plain-``==`` identical to
in-process :func:`run_three_ways` (ground truth), checked **cold** (the
gateway computes into its own empty disk cache) and **warm** (the
second submission replays the cached payload bit-for-bit).  A fleet is
only sound if the wire cannot change the answer."""

import pytest

from repro.config import RunConfig
from repro.earth.faults import plan_from_cli
from repro.harness.experiments import leg_job
from repro.harness.pipeline import CONFIGURATIONS, run_three_ways
from repro.olden.loader import get_benchmark
from repro.service.jobs import run_payload

#: (benchmark, fault profile) of every cell: one clean, one faulted.
CELLS = (("power", None), ("treeadd", "mild"))
FAULT_SEED = 29


def _faults(profile):
    if profile is None:
        return None
    return plan_from_cli(FAULT_SEED, profile, None, None).spec()


def _jobs(name, profile):
    """The cell's three configurations (the uncached ones, what
    ``run_three_ways`` runs): configuration -> its ``run`` leg."""
    run = RunConfig(faults=_faults(profile))
    return {configuration: leg_job(name, configuration, 2,
                                   small=True, run=run)
            for configuration, leg in CONFIGURATIONS.items()
            if not leg.cached}


def _in_process(name, profile):
    """configuration -> run payload, computed in-process."""
    spec = get_benchmark(name)
    results = run_three_ways(
        spec.source(), name, inline=spec.inline,
        config=RunConfig(nodes=2, args=tuple(spec.small_args),
                         max_stmts=spec.max_stmts, faults=_faults(profile)))
    return {configuration: run_payload(result)
            for configuration, result in results.items()}


@pytest.fixture(scope="module")
def references():
    """In-process ground truth, keyed by cell."""
    return {cell: _in_process(*cell) for cell in CELLS}


@pytest.fixture(scope="module")
def http_gateway(tmp_path_factory):
    from tests.service.conftest import start_gateway
    live = start_gateway(
        workers=2,
        cache_dir=str(tmp_path_factory.mktemp("http-diff-cache")))
    yield live
    live.close()


def _http_submit(gateway, jobs, cache):
    """Post every leg; configuration -> run payload (the references'
    shape).  Each answer must carry disposition ``cache``."""
    payload = {}
    for configuration, job in jobs.items():
        status, body = gateway.request("POST", "/v1/jobs",
                                       body=job.to_dict(), timeout=600)
        assert status == 200, body
        assert body["result"]["cache"] == cache
        payload[configuration] = body["result"]["payload"]["run"]
    return payload


def test_http_path_matches_in_process_cold_and_warm(references,
                                                    http_gateway):
    for cell in CELLS:
        jobs = _jobs(*cell)
        cold = _http_submit(http_gateway, jobs, "miss")
        assert cold == references[cell], \
            f"{cell} diverged over HTTP (cold)"
        warm = _http_submit(http_gateway, jobs, "hit")
        assert warm == cold, f"{cell} warm HTTP replay diverged"


def test_faulted_runs_actually_took_faults(references):
    """Guard against the fault leg silently degenerating into the
    clean one: its payloads must differ from the same benchmark's
    clean run."""
    for name, profile in CELLS:
        if profile is not None:
            assert references[(name, profile)] != _in_process(name, None), \
                f"{name}: fault profile had no observable effect"
