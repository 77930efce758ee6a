"""Differential acceptance: the served path returns payloads
byte-identical to the in-process pipeline.

For every Olden benchmark, with and without a seeded fault profile,
the payloads the HTTP gateway answers (``POST /v1/jobs``) for the
three configurations' ``run`` legs must be plain-``==`` identical to
in-process :func:`run_three_ways` (ground truth), checked **cold**
(the gateway computes into its own empty disk cache) and **warm** (the
second submission replays the cached payload bit-for-bit).  A fleet is
only sound if the wire cannot change the answer."""

import os

import pytest

from repro.config import RunConfig
from repro.earth.faults import FaultPlan, plan_from_cli
from repro.harness.experiments import leg_job
from repro.harness.pipeline import CONFIGURATIONS, run_three_ways
from repro.olden.loader import catalog
from repro.service.jobs import run_payload

FAULT_SEED = 29
FAULT_CASES = (None, "mild")


def _fault_dict(profile):
    if profile is None:
        return None
    return plan_from_cli(FAULT_SEED, profile, None, None).spec()


#: CI runs the faulted leg on the whole catalog; the local tier-1
#: profile keeps it to a representative third (the chaos suites cover
#: every benchmark under faults -- this matrix pins the wire).
_FULL_MATRIX = bool(os.environ.get("CI")) \
    or os.environ.get("HYPOTHESIS_PROFILE") == "ci"
FAULTED_BENCHMARKS = ("power", "em3d", "treeadd")


def _matrix():
    return [(spec, profile) for spec in catalog()
            for profile in FAULT_CASES
            if profile is None or _FULL_MATRIX
            or spec.name in FAULTED_BENCHMARKS]


def _jobs(spec, profile):
    """The cell's three configurations (the uncached ones, what
    ``run_three_ways`` runs): configuration -> its ``run`` leg."""
    run = RunConfig(faults=_fault_dict(profile))
    return {configuration: leg_job(spec.name, configuration, 2,
                                   small=True, run=run)
            for configuration, leg in CONFIGURATIONS.items()
            if not leg.cached}


@pytest.fixture(scope="module")
def references():
    """In-process ground truth, keyed (benchmark, fault-profile)."""
    expected = {}
    for spec, profile in _matrix():
        faults = None
        if profile is not None:
            faults = FaultPlan.from_spec(_fault_dict(profile))
        results = run_three_ways(
            spec.source(), spec.name, inline=spec.inline,
            faults=faults,
            config=RunConfig(nodes=2, args=tuple(spec.small_args),
                             max_stmts=spec.max_stmts))
        expected[(spec.name, profile)] = {
            name: run_payload(result)
            for name, result in results.items()}
    return expected


@pytest.fixture(scope="module")
def http_gateway(tmp_path_factory):
    from tests.fleet.conftest import start_gateway
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
    for spec, profile in _matrix():
        jobs = _jobs(spec, profile)
        cold = _http_submit(http_gateway, jobs, "miss")
        assert cold == references[(spec.name, profile)], \
            f"{spec.name}/faults={profile} diverged over HTTP (cold)"
        warm = _http_submit(http_gateway, jobs, "hit")
        assert warm == cold, \
            f"{spec.name}/faults={profile} warm HTTP replay diverged"


def test_faulted_runs_actually_took_faults(references):
    """Guard against the fault leg silently degenerating into the
    clean one: the two payloads must differ in simulated time."""
    faulted_names = {spec.name for spec, profile in _matrix()
                     if profile is not None}
    for spec in catalog():
        if spec.name not in faulted_names:
            continue
        clean = references[(spec.name, None)]
        faulted = references[(spec.name, "mild")]
        assert clean != faulted, \
            f"{spec.name}: fault profile had no observable effect"
