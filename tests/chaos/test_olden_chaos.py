"""All ten Olden benchmarks under seeded fault plans, every engine.

The heavyweight end of the chaos-differential suite: every benchmark
runs clean once, then under three seeded ``chaos``-profile plans on
both execution engines.  Values and output must be invariant; the two
engines must additionally agree with each other bit-for-bit on timing
and statistics under the *same* plan.
"""

import pytest

from repro.earth.faults import FaultPlan
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog
from repro.config import RunConfig

SEEDS = (1, 2, 3)
NODES = 4


@pytest.fixture(scope="module")
def compiled_benchmarks():
    return {spec.name: (spec, compile_earthc(
                spec.source(), spec.filename, optimize=True,
                inline=spec.inline))
            for spec in catalog()}


@pytest.fixture(scope="module")
def baselines(compiled_benchmarks):
    return {name: execute(compiled,
                          config=RunConfig(nodes=NODES,
                                           args=tuple(list(spec.small_args))))
            for name, (spec, compiled) in compiled_benchmarks.items()}


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_invariant_under_chaos(compiled_benchmarks, baselines,
                                         name, seed):
    spec, compiled = compiled_benchmarks[name]
    baseline = baselines[name]
    runs = {}
    for engine in ENGINES:
        plan = FaultPlan.from_profile("chaos", seed)
        result = execute(compiled, faults=plan,
                         config=RunConfig(nodes=NODES,
                                          args=tuple(list(spec.small_args)),
                                          engine=engine))
        assert result.value == baseline.value, engine
        assert result.output == baseline.output, engine
        # The plan actually did something to this run.
        assert result.stats.net_drops > 0
        assert result.stats.op_retries > 0
        runs[engine] = result
    # Same plan => the engines agree on everything, faults included.
    for engine in ENGINES:
        assert runs["ast"].time_ns == runs[engine].time_ns, engine
        assert runs["ast"].stats.snapshot() \
            == runs[engine].stats.snapshot(), engine


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_benchmark_survives_slowdown_and_stalls(compiled_benchmarks,
                                                baselines, name):
    """Timing-only profiles (no message loss): values still pinned."""
    spec, compiled = compiled_benchmarks[name]
    baseline = baselines[name]
    for profile in ("jittery", "slow-su", "stally"):
        plan = FaultPlan.from_profile(profile, 4)
        result = execute(compiled, faults=plan,
                         config=RunConfig(nodes=NODES,
                                          args=tuple(list(spec.small_args))))
        assert result.value == baseline.value, profile
        assert result.output == baseline.output, profile
        assert result.stats.net_drops == 0, profile
