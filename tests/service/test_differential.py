"""Differential acceptance test: served results are bit-identical to
the in-process pipeline.

For every Olden benchmark, both engines, with and without a fault
profile, the payload a :class:`WorkerPool` returns must equal --
as a plain ``==`` on the JSON-safe payload dicts, i.e. bit-identical
values, simulated times, output, stats, and utilization -- what
:func:`run_three_ways` computes in-process.  Checked cold (workers=1,
computing into a shared disk cache), warm (workers=2, all cache hits),
and fresh at workers=4 (no cache: worker count cannot change results).
"""

import os

import pytest

from repro.earth.faults import FaultPlan, plan_from_cli
from repro.earth.interpreter import DEFAULT_ENGINE, ENGINES
from repro.harness.pipeline import run_three_ways
from repro.olden.loader import catalog
from repro.service.jobs import JobSpec, run_payload
from repro.service.pool import WorkerPool
from repro.config import RunConfig

#: Matrix axes: execution engine x fault injection (seeded profile).
FAULT_SEED = 29
FAULT_CASES = (None, "mild")

#: CI runs the full catalog x engines x faults cross product; the
#: local tier-1 profile keeps the engine and fault axes to a
#: representative trio (one paper benchmark, two from the extended
#: suite) while still covering every benchmark on the default
#: engine's clean leg.  Engine bit-identity and fault behavior on
#: every benchmark are already pinned by the engine-equivalence and
#: chaos suites -- this matrix pins the *service* transport.
_FULL_MATRIX = bool(os.environ.get("CI")) \
    or os.environ.get("HYPOTHESIS_PROFILE") == "ci"
FULL_AXIS_BENCHMARKS = ("power", "em3d", "treeadd")


def _fault_dict(profile):
    if profile is None:
        return None
    return plan_from_cli(FAULT_SEED, profile, None, None).spec()


def _matrix():
    cells = []
    for spec in catalog():
        full = _FULL_MATRIX or spec.name in FULL_AXIS_BENCHMARKS
        for engine in ENGINES if full else (DEFAULT_ENGINE,):
            for profile in FAULT_CASES if full else FAULT_CASES[:1]:
                cells.append((spec, engine, profile))
    return cells


def _job(spec, engine, profile):
    return JobSpec("three-way", benchmark=spec.name, nodes=2,
                   small=True, engine=engine,
                   faults=_fault_dict(profile))


@pytest.fixture(scope="module")
def references():
    """In-process ground truth for the full matrix, keyed
    (benchmark, engine, fault-profile)."""
    expected = {}
    for spec, engine, profile in _matrix():
        faults = None
        if profile is not None:
            faults = FaultPlan.from_spec(_fault_dict(profile))
        results = run_three_ways(
            spec.source(), spec.name, inline=spec.inline, faults=faults,
            config=RunConfig(nodes=2, args=tuple(spec.small_args),
                             max_stmts=spec.max_stmts, engine=engine))
        expected[(spec.name, engine, profile)] = {
            name: run_payload(result)
            for name, result in results.items()}
    return expected


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("differential-cache"))


def test_cold_worker_matches_in_process(references, cache_dir):
    """workers=1, empty cache: every job computes and must reproduce
    the in-process payload exactly."""
    jobs = [_job(*cell) for cell in _matrix()]
    with WorkerPool(workers=1, cache_dir=cache_dir) as pool:
        results = pool.run_batch(jobs, timeout=600)
    for (spec, engine, profile), result in zip(_matrix(), results):
        assert result.ok, result.error
        assert result.cache == "miss"
        assert result.payload == \
            references[(spec.name, engine, profile)], \
            f"{spec.name}/{engine}/faults={profile} diverged (cold)"


def test_warm_cache_replays_bit_identically(references, cache_dir):
    """workers=2 over the cache the cold run filled: every job is a
    hit, and hits serve the exact payload the cold computation made."""
    jobs = [_job(*cell) for cell in _matrix()]
    with WorkerPool(workers=2, cache_dir=cache_dir) as pool:
        results = pool.run_batch(jobs, timeout=600)
    for (spec, engine, profile), result in zip(_matrix(), results):
        assert result.ok, result.error
        assert result.cache == "hit"
        assert result.payload == \
            references[(spec.name, engine, profile)], \
            f"{spec.name}/{engine}/faults={profile} diverged (warm)"


def test_four_workers_compute_the_same_results(references):
    """workers=4, no cache: recomputed from scratch under maximal
    interleaving, results must not depend on the worker count.  (The
    default-engine half of the matrix keeps the recompute affordable;
    the ast engine's worker-count independence is already covered by the
    cold run, which uses a different worker count than the
    references.)"""
    cells = [cell for cell in _matrix() if cell[1] == DEFAULT_ENGINE]
    jobs = [_job(*cell) for cell in cells]
    with WorkerPool(workers=4, cache_dir=None) as pool:
        results = pool.run_batch(jobs, timeout=600)
    for (spec, engine, profile), result in zip(cells, results):
        assert result.ok, result.error
        assert result.cache == "miss"  # memory-only tier, all fresh
        assert result.payload == \
            references[(spec.name, engine, profile)], \
            f"{spec.name}/{engine}/faults={profile} diverged (w=4)"
