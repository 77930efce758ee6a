"""Byte-identity of simulated runs, pinned.

``golden_runs.json`` holds two kinds of pin for the ten Olden programs
at their small sizes (optimizing compile, legacy preset):

* **zero-fault runs** -- {codegen, ast} x {4, 16} nodes x {no cache,
  remote-data cache 64 x 16}: the sha256 of the value, ``time_ns``, the
  full stats snapshot, the EU/SU busy arrays and the full event trace.
  A change to the simulated network that is meant to keep clean runs
  alone must leave every one of these digests unmoved.
* **fault runs** -- every named fault profile, seed 0, 4 nodes: the
  value and the program output only.  Timing and fault counters of a
  faulty run may legitimately move with the resilience protocol; what
  the program computes may not.

Re-record (and say so) with

    PYTHONPATH=src python tests/chaos/test_run_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.config import RunConfig
from repro.earth.faults import PROFILES
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog, get_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_runs.json")

NAMES = [spec.name for spec in catalog()]
#: (engine, nodes, rcache_capacity) of every pinned zero-fault run.
CLEAN = [(engine, nodes, capacity) for engine in sorted(ENGINES)
         for nodes in (4, 16) for capacity in (0, 64)]
FAULT_NODES = 4
FAULT_SEED = 0


def _compile(name):
    spec = get_benchmark(name)
    return compile_earthc(spec.source(), spec.filename, optimize=True,
                          inline=spec.inline)


def _config(name, **run):
    return RunConfig(args=tuple(get_benchmark(name).small_args), **run)


def clean_key(name, engine, nodes, capacity):
    return f"{name}/{engine}/n{nodes}/rcache{capacity}"


def fault_key(name, profile):
    return f"{name}/faults-{profile}"


def clean_digest(compiled, name, engine, nodes, capacity):
    result = execute(compiled, config=_config(
        name, nodes=nodes, engine=engine, rcache_capacity=capacity,
        rcache_line_words=16, trace=True))
    record = {
        "value": result.value,
        "time_ns": result.time_ns,
        "stats": result.stats.snapshot(),
        "eu_busy": result.eu_busy_ns,
        "su_busy": result.su_busy_ns,
        "trace": hashlib.sha256(json.dumps(
            list(result.tracer.events), sort_keys=True,
            default=repr).encode()).hexdigest(),
    }
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def fault_pin(compiled, name, profile):
    result = execute(compiled, config=_config(
        name, nodes=FAULT_NODES,
        faults=dict(PROFILES[profile], seed=FAULT_SEED)))
    return {"value": result.value, "output": result.output}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def compiled():
    return {name: _compile(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("engine,nodes,capacity", CLEAN,
                         ids=lambda value: str(value))
def test_zero_fault_run_matches_golden(golden, compiled, name, engine,
                                       nodes, capacity):
    assert clean_digest(compiled[name], name, engine, nodes, capacity) \
        == golden[clean_key(name, engine, nodes, capacity)]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fault_run_value_matches_golden(golden, compiled, name, profile):
    assert fault_pin(compiled[name], name, profile) \
        == golden[fault_key(name, profile)]


def test_golden_covers_exactly_the_matrix(golden):
    keys = [clean_key(name, *run) for name in NAMES for run in CLEAN]
    keys += [fault_key(name, profile) for name in NAMES
             for profile in PROFILES]
    assert sorted(golden) == sorted(keys)


if __name__ == "__main__":
    pins = {}
    for name in NAMES:
        program = _compile(name)
        for run in CLEAN:
            pins[clean_key(name, *run)] = clean_digest(program, name, *run)
        for profile in sorted(PROFILES):
            pins[fault_key(name, profile)] = fault_pin(program, name,
                                                       profile)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(pins)} pins in {GOLDEN_PATH}")
