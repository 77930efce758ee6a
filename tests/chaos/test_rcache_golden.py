"""A zero-capacity cache config is byte-identical to no cache at all.

The remote-data cache must be pay-for-what-you-use: with
``rcache_capacity=0`` (the default) the machine builds no cache object,
and every observable of a run -- value, output, simulated time, every
statistic, and the full event trace -- matches both the pre-cache
golden capture and a fresh plain run, on all five Olden benchmarks
under every execution engine.
"""

import json
import os

import pytest

from repro.config import RunConfig
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.obs.trace import Tracer
from repro.olden.loader import catalog, get_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_zero_fault.json")
NODES = 4


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def compiled():
    return {spec.name: compile_earthc(spec.source(), spec.name,
                                      optimize=True, inline=spec.inline)
            for spec in catalog()}


def run(compiled_program, spec, engine, capacity, tracer=None):
    config = RunConfig(nodes=NODES, args=tuple(spec.small_args),
                       engine=engine, rcache_capacity=capacity)
    return execute(compiled_program, tracer=tracer, config=config)


def normalized(tracer):
    """Events with fiber ids renumbered by first appearance.

    Fiber ids come from a process-global counter, so two otherwise
    identical runs in one process disagree on the raw numbers.
    """
    renumber = {}
    events = []
    for event in tracer.sorted_events():
        event = dict(event)
        fiber = event.get("fiber")
        if fiber is not None:
            event["fiber"] = renumber.setdefault(fiber, len(renumber))
        events.append(event)
    return events


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
@pytest.mark.parametrize("engine", ENGINES)
class TestCapacityZeroIsIdentity:
    def test_matches_pre_cache_golden(self, golden, compiled, name,
                                      engine):
        spec = get_benchmark(name)
        got = run(compiled[name], spec, engine, capacity=0)
        want = golden[name]["optimized"]
        assert got.value == want["value"]
        assert got.output == want["output"]
        assert got.time_ns == want["time_ns"]
        snapshot = got.stats.snapshot()
        for counter, value in want["stats"].items():
            assert snapshot[counter] == value, counter

    def test_trace_identical_to_plain_run(self, compiled, name, engine):
        spec = get_benchmark(name)
        plain_tracer, zero_tracer = Tracer(), Tracer()
        plain = execute(compiled[name], tracer=plain_tracer,
                        config=RunConfig(nodes=NODES,
                                         args=tuple(spec.small_args),
                                         engine=engine))
        zero = run(compiled[name], spec, engine, capacity=0,
                   tracer=zero_tracer)
        assert zero.value == plain.value
        assert zero.time_ns == plain.time_ns
        assert zero.stats.snapshot() == plain.stats.snapshot()
        assert normalized(zero_tracer) == normalized(plain_tracer)


def test_golden_has_no_rcache_counters(golden):
    # The capture predates the cache; iterating ITS keys above is what
    # keeps this suite valid as counters get added.  Pin that premise.
    for name in golden:
        assert "rcache_hits" not in golden[name]["optimized"]["stats"]
