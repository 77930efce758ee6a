"""The remote-data cache is sound under every fault profile.

Cache fills ride the same exactly-once split-phase machinery as every
other remote operation, and invalidations are sequenced on the same
per-(origin, target) channel as the writes that trigger them -- so a
retried write must invalidate exactly once, and a cached run under a
faulty network must compute exactly what the uncached run computes.
These tests drive that argument across all named profiles on the Olden
benchmarks, and property-test it over generated heap programs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.earth.faults import PROFILES, FaultPlan
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog, get_benchmark

from tests.property.gen_programs import heap_programs

NODES = 4
#: Benchmarks with enough remote reuse that the cache actually engages
#: (power's reuse is already eliminated by the communication optimizer;
#: em3d/mst/treeadd are the new-suite members whose root-side walks and
#: Jacobi sweeps re-read remote lines at small sizes).
BENCHMARKS = ("perimeter", "tsp", "em3d", "mst", "treeadd")

CHAOS = settings(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

fault_configs = st.sampled_from(sorted(PROFILES)) \
    .flatmap(lambda name: st.tuples(st.just(name),
                                    st.integers(0, 10_000)))


@pytest.fixture(scope="module")
def compiled():
    return {name: compile_earthc(get_benchmark(name).source(), name,
                                 optimize=True,
                                 inline=get_benchmark(name).inline)
            for name in BENCHMARKS}


@pytest.fixture(scope="module")
def clean_baselines(compiled):
    return {name: execute(compiled[name],
                          config=RunConfig(
                              nodes=NODES,
                              args=tuple(get_benchmark(name).small_args)))
            for name in BENCHMARKS}


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_cached_run_correct_under_every_profile(compiled,
                                                clean_baselines, name,
                                                profile):
    spec = get_benchmark(name)
    config = RunConfig(nodes=NODES, args=tuple(spec.small_args),
                       rcache_capacity=64,
                       faults=dict(PROFILES[profile], seed=7))
    result = execute(compiled[name], config=config)
    baseline = clean_baselines[name]
    assert result.value == baseline.value, profile
    assert result.output == baseline.output, profile
    assert result.stats.rcache_hits > 0, profile
    if PROFILES[profile].get("drop_prob"):
        # Retries were genuinely exercised alongside the cache.
        assert result.stats.op_retries > 0, profile


@pytest.mark.parametrize("name", BENCHMARKS)
def test_retried_writes_apply_exactly_once(compiled, name):
    """Under drops, a write may be re-sent many times, but retries
    re-send messages without re-applying the operation: the cached and
    clean runs agree on the applied write count and compute the same
    result.  (The *fired*-invalidation counter is deliberately not
    pinned: invalidations are now messages, and whether one finds a
    stale copy to drop depends on fault-perturbed arrival order --
    a no-op inval is correct protocol behaviour, not a double fire.)"""
    spec = get_benchmark(name)

    def cached(faults):
        config = RunConfig(nodes=NODES, args=tuple(spec.small_args),
                           rcache_capacity=64, faults=faults)
        return execute(compiled[name], config=config)

    clean = cached(None)
    faulty = cached(dict(PROFILES["lossy"], seed=11))
    assert faulty.stats.op_retries > 0
    assert faulty.value == clean.value
    assert faulty.output == clean.output
    assert faulty.stats.remote_writes == clean.stats.remote_writes


#: Fault runs in which a read parked behind a lost request and a later
#: write to the same line drained at one instant: the read's snapshot
#: and the write's store carried equal timestamps, and an equal instant
#: used to count as fresh, so the stale line survived the write's
#: invalidation.  ``(nodes, profile, seed, value once served stale)``;
#: the last row only went wrong when drained replies took their own
#: latency.
STALE_AT_EQUAL_INSTANT = [
    (4, "lossy", 0, 96135),
    (8, "chaos", 1, 70557),
    (8, "chaos", 4, 96135),
    (8, "lossy", 4, 96135),
    (4, "lossy", 9, 83375),
    (4, "mild", 9, 82119),
    (4, "mild", 7, 82179),
]


@pytest.mark.parametrize("nodes,profile,seed,stale_value",
                         STALE_AT_EQUAL_INSTANT)
def test_snapshot_at_the_store_instant_is_stale(compiled, nodes, profile,
                                                seed, stale_value):
    spec = get_benchmark("em3d")
    config = RunConfig(nodes=nodes, args=tuple(spec.small_args))
    clean = execute(compiled["em3d"], config=config)
    cached = execute(compiled["em3d"], config=config.replace(
        rcache_capacity=64, rcache_line_words=16,
        faults=dict(PROFILES[profile], seed=seed)))
    assert clean.value == 82104 != stale_value
    assert cached.value == clean.value
    assert cached.output == clean.output


@pytest.mark.ci_only
@pytest.mark.parametrize("nodes", [4, 8])
@pytest.mark.parametrize("name", ["em3d", "mst", "treeadd"])
def test_every_seed_and_geometry_keeps_the_clean_value(compiled, name,
                                                       nodes):
    """The sweep the stale snapshots above were found in: every
    profile x seeds 0-9 x a large and a small cache, 120 runs a
    benchmark and node count, each value and output the clean run's."""
    spec = get_benchmark(name)
    config = RunConfig(nodes=nodes, args=tuple(spec.small_args))
    clean = execute(compiled[name], config=config)
    wrong = []
    for profile in sorted(PROFILES):
        for seed in range(10):
            for lines, words in ((64, 16), (8, 4)):
                result = execute(compiled[name], config=config.replace(
                    rcache_capacity=lines, rcache_line_words=words,
                    faults=dict(PROFILES[profile], seed=seed)))
                if (result.value, result.output) \
                        != (clean.value, clean.output):
                    wrong.append((profile, seed, f"{lines}x{words}",
                                  result.value))
    assert wrong == [], clean.value


@CHAOS
@given(heap_programs(), fault_configs)
def test_cached_equals_uncached_under_faults(source, fault_config):
    """Property form of the soundness argument: for generated heap
    programs, a cached faulty run, an uncached faulty run, and a clean
    run all compute the same value and output, on every engine."""
    profile, seed = fault_config
    compiled_program = compile_earthc(source, optimize=True)
    clean = execute(compiled_program, config=RunConfig(nodes=3))
    for engine in ENGINES:
        base = RunConfig(nodes=3, engine=engine,
                         faults=dict(PROFILES[profile], seed=seed))
        uncached = execute(compiled_program, config=base)
        cached = execute(compiled_program,
                         config=base.replace(rcache_capacity=8,
                                             rcache_line_words=4))
        for result in (uncached, cached):
            assert result.value == clean.value, (profile, seed, engine)
            assert result.output == clean.output, (profile, seed, engine)


@CHAOS
@given(heap_programs(), st.integers(0, 10_000))
def test_cached_faulty_runs_replay_bit_identically(source, seed):
    """Determinism survives the cache: cloned fault plans give two
    cached runs that agree on time and the full stats snapshot."""
    compiled_program = compile_earthc(source, optimize=True)
    plan = FaultPlan.from_profile("chaos", seed)
    config = RunConfig(nodes=3, rcache_capacity=8, rcache_line_words=4)
    first = execute(compiled_program, config=config,
                    faults=plan.clone())
    second = execute(compiled_program, config=config,
                     faults=plan.clone())
    assert first.value == second.value
    assert first.time_ns == second.time_ns
    assert first.stats.snapshot() == second.stats.snapshot()
