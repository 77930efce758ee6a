"""Differential acceptance test: served results are bit-identical to
the in-process pipeline.

A job is one compile and at most one run, so the pool cannot vary the
answer per benchmark, engine or fault plan: one clean and one faulted
benchmark on the default engine stand for the rest (every engine and
fault profile is pinned in-process by ``tests/chaos/test_run_golden.py``).
The payloads a :class:`WorkerPool` returns for the three configurations'
``run`` legs must equal -- as a plain ``==`` on the JSON-safe payload
dicts, i.e. bit-identical values, simulated times, output, stats, and
utilization -- what :func:`run_three_ways` computes in-process.
Checked cold (workers=1, computing into a shared disk cache), warm
(workers=2, all cache hits), and fresh at workers=4 (no cache: worker
count cannot change results).
"""

import pytest

from repro.config import RunConfig
from repro.earth.faults import plan_from_cli
from repro.harness.experiments import leg_job
from repro.harness.pipeline import CONFIGURATIONS, run_three_ways
from repro.olden.loader import get_benchmark
from repro.service.jobs import run_payload
from repro.service.pool import WorkerPool

#: (benchmark, fault profile) of every cell: one clean, one faulted.
CELLS = (("power", None), ("treeadd", "mild"))
FAULT_SEED = 29

#: What ``run_three_ways`` runs: the uncached configurations.
LEGS = [name for name, leg in CONFIGURATIONS.items() if not leg.cached]


def _faults(profile):
    if profile is None:
        return None
    return plan_from_cli(FAULT_SEED, profile, None, None).spec()


def _jobs(name, profile):
    """One cell's three configurations, a ``run`` job per leg."""
    run = RunConfig(faults=_faults(profile))
    return [leg_job(name, configuration, 2, small=True, run=run)
            for configuration in LEGS]


def _served(pool, cells, cache):
    """One payload per cell, shaped like its reference (configuration
    -> run payload), from one ``run_batch`` over every leg; each leg
    must be ok and come back with disposition ``cache``."""
    results = iter(pool.run_batch(
        [job for cell in cells for job in _jobs(*cell)], timeout=600))
    served = []
    for _ in cells:
        payload = {}
        for configuration in LEGS:
            result = next(results)
            assert result.ok, result.error
            assert result.cache == cache
            payload[configuration] = result.payload["run"]
        served.append(payload)
    return served


@pytest.fixture(scope="module")
def references():
    """In-process ground truth, keyed by cell."""
    expected = {}
    for name, profile in CELLS:
        spec = get_benchmark(name)
        results = run_three_ways(
            spec.source(), name, inline=spec.inline,
            config=RunConfig(nodes=2, args=tuple(spec.small_args),
                             max_stmts=spec.max_stmts,
                             faults=_faults(profile)))
        expected[(name, profile)] = {
            configuration: run_payload(result)
            for configuration, result in results.items()}
    return expected


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("differential-cache"))


def test_cold_worker_matches_in_process(references, cache_dir):
    """workers=1, empty cache: every job computes and must reproduce
    the in-process payload exactly."""
    with WorkerPool(workers=1, cache_dir=cache_dir) as pool:
        served = _served(pool, CELLS, "miss")
    for cell, payload in zip(CELLS, served):
        assert payload == references[cell], f"{cell} diverged (cold)"


def test_warm_cache_replays_bit_identically(references, cache_dir):
    """workers=2 over the cache the cold run filled: every job is a
    hit, and hits serve the exact payload the cold computation made."""
    with WorkerPool(workers=2, cache_dir=cache_dir) as pool:
        served = _served(pool, CELLS, "hit")
    for cell, payload in zip(CELLS, served):
        assert payload == references[cell], f"{cell} diverged (warm)"


def test_four_workers_compute_the_same_results(references):
    """workers=4, no cache: the faulted cell recomputed from scratch
    under maximal interleaving must not depend on the worker count."""
    cell = CELLS[-1]
    with WorkerPool(workers=4, cache_dir=None) as pool:
        # "miss": a memory-only tier, all fresh.
        [payload] = _served(pool, [cell], "miss")
    assert payload == references[cell], f"{cell} diverged (w=4)"
