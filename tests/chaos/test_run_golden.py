"""Byte-identity of simulated runs, pinned: the one pin of the
zero-fault contract.

``golden_runs.json`` holds two kinds of pin for the ten Olden programs
at their small sizes:

* **zero-fault runs** -- one cell per leg of
  :data:`~repro.harness.pipeline.CONFIGURATIONS` at a node count
  (:data:`CELLS`), compiled and run as that leg: ``sequential`` (one
  node, ``sequential-c``), ``simple`` at 4 and 16 nodes, ``optimized``
  at 1, 4 and 16, ``rcached`` (the optimized program, remote-data cache
  64 x 16) at 4 and 16.  A cell is keyed
  ``<benchmark>/<leg>/n<nodes>/rcache<capacity>`` and holds the sha256
  of the value, ``time_ns``, the full stats snapshot, the EU/SU busy
  arrays and the full event trace.  It names no engine: every engine in
  ``ENGINES`` must produce the one digest, so engine bit-identity is a
  property of the pin.  A change meant to keep clean runs alone must
  leave every digest unmoved.
* **fault runs** -- every named fault profile, seed 0, 4 nodes, the
  optimized leg: the value and the program output only, the same on
  every engine.  Timing and fault counters of a faulty run may
  legitimately move with the resilience protocol; what the program
  computes may not.

Each pin is checked once per engine, so a failure names the engine.

Re-record (and say so) with

    PYTHONPATH=src python tests/chaos/test_run_golden.py
"""

import functools
import hashlib
import json
import os

import pytest

from repro.config import RunConfig
from repro.earth.faults import PROFILES
from repro.earth.interpreter import DEFAULT_ENGINE, ENGINES
from repro.harness.pipeline import (
    CONFIGURATIONS,
    check_same_value,
    compile_earthc,
    execute,
)
from repro.olden.loader import catalog, get_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_runs.json")

NAMES = [spec.name for spec in catalog()]
#: (leg, nodes) of every pinned zero-fault run.  What else a leg fixes
#: (``sequential``: one node, ``rcached``: the default cache geometry)
#: comes from its ``CONFIGURATIONS`` row.
CELLS = [("sequential", 1), ("simple", 4), ("simple", 16),
         ("optimized", 1), ("optimized", 4), ("optimized", 16),
         ("rcached", 4), ("rcached", 16)]
FAULT_NODES = 4
FAULT_SEED = 0


@functools.lru_cache(maxsize=None)
def _compile(name, optimize, comm):
    spec = get_benchmark(name)
    return compile_earthc(spec.source(), spec.filename, optimize=optimize,
                          config=comm, inline=spec.inline)


def _leg(name, leg, **run):
    """The compiled program and run config of ``leg`` of benchmark
    ``name`` when the caller asks for ``run``."""
    leg = CONFIGURATIONS[leg]
    config = RunConfig(args=tuple(get_benchmark(name).small_args), **run)
    return _compile(name, leg.optimize, leg.comm), leg.run_config(config)


def clean_key(name, leg, nodes):
    config = CONFIGURATIONS[leg].run_config(RunConfig(nodes=nodes))
    return f"{name}/{leg}/n{config.nodes}/rcache{config.rcache_capacity}"


def fault_key(name, profile):
    return f"{name}/faults-{profile}"


@functools.lru_cache(maxsize=None)
def clean_run(name, leg, nodes, engine):
    """(digest, value, output) of one zero-fault cell on ``engine``."""
    compiled, config = _leg(name, leg, nodes=nodes, engine=engine,
                            trace=True)
    result = execute(compiled, config=config)
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
    return (hashlib.sha256(text.encode()).hexdigest(), result.value,
            result.output)


def fault_pin(name, profile, engine):
    compiled, config = _leg(name, "optimized", nodes=FAULT_NODES,
                            engine=engine,
                            faults=dict(PROFILES[profile], seed=FAULT_SEED))
    result = execute(compiled, config=config)
    return {"value": result.value, "output": result.output}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("leg,nodes", CELLS,
                         ids=[f"{leg}-n{nodes}" for leg, nodes in CELLS])
def test_zero_fault_run_matches_golden(golden, name, leg, nodes, engine):
    digest, _, output = clean_run(name, leg, nodes, engine)
    assert digest == golden[clean_key(name, leg, nodes)]
    assert output == []


@pytest.mark.parametrize("name", NAMES)
def test_legs_agree_on_value(name):
    check_same_value({f"{leg}/n{nodes}":
                      clean_run(name, leg, nodes, DEFAULT_ENGINE)[1]
                      for leg, nodes in CELLS})


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fault_run_value_matches_golden(golden, name, profile, engine):
    assert fault_pin(name, profile, engine) \
        == golden[fault_key(name, profile)]


def test_golden_covers_exactly_the_matrix(golden):
    keys = [clean_key(name, *cell) for name in NAMES for cell in CELLS]
    keys += [fault_key(name, profile) for name in NAMES
             for profile in PROFILES]
    assert sorted(golden) == sorted(keys)


def _agreed(key, pins):
    """The one pin every engine produced for ``key``."""
    if any(pin != pins[0] for pin in pins):
        raise SystemExit(f"engines disagree on {key}")
    return pins[0]


if __name__ == "__main__":
    pins = {}
    for name in NAMES:
        for leg, nodes in CELLS:
            key = clean_key(name, leg, nodes)
            pins[key] = _agreed(key, [clean_run(name, leg, nodes, engine)[0]
                                      for engine in ENGINES])
        for profile in sorted(PROFILES):
            key = fault_key(name, profile)
            pins[key] = _agreed(key, [fault_pin(name, profile, engine)
                                      for engine in ENGINES])
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(pins)} pins in {GOLDEN_PATH}")
