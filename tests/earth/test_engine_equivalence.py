"""Differential tests: every engine against the AST walker.

The codegen engine (``repro.earth.codegen``) must be *observationally
bit-identical* to the reference tree walker for every program that
completes: same result value, same printed output, same
``MachineStats`` snapshot, and the same simulated ``time_ns`` down to
the last bit.  The Olden programs' zero-fault runs are pinned once, for
every engine, by ``tests/chaos/test_run_golden.py``; these tests drive
the bundled example programs through the paper's three configurations,
the Olden set under a fault plan with and without the remote-data
cache, programs that read into globals or hold non-finite constants,
and Hypothesis-generated programs.  Across the three configurations
the value must also agree: the optimizer moves communication, never
what a program computes.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import RunConfig
from repro.earth.faults import FaultPlan
from repro.earth.interpreter import (
    DEFAULT_ENGINE,
    ENGINES,
    Interpreter,
    InterpreterError,
)
from repro.earth.machine import Machine
from repro.harness.pipeline import (
    CONFIGURATIONS,
    compile_earthc,
    execute,
)
from repro.olden.loader import catalog
from repro.shard.runner import run_sharded
from tests.comm.test_global_pointers import PROGRAMS as GLOBAL_POINTERS
from tests.comm.test_global_pointers import READ_INTO_GLOBAL
from tests.property.gen_programs import heap_programs, scalar_programs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _example_source(filename: str) -> str:
    """The EARTH-C program embedded in an examples/ script."""
    text = (EXAMPLES / filename).read_text()
    match = re.search(r'SOURCE = """(.*?)"""', text, re.S)
    assert match is not None, f"no SOURCE block in {filename}"
    return match.group(1)


def _compare(compiled, config):
    """Run ``compiled`` under ``config`` on every engine; assert
    bit-identity against the AST reference, and return the value."""
    results = {engine: execute(compiled, config=config.replace(engine=engine))
               for engine in ENGINES}
    ast = results["ast"]
    for engine, result in results.items():
        if engine == "ast":
            continue
        assert result.value == ast.value, engine
        assert result.output == ast.output, engine
        # bit-identical, no rounding
        assert result.time_ns == ast.time_ns, engine
        assert result.stats.snapshot() == ast.stats.snapshot(), engine
    return ast.value


def _compare_three_ways(source, filename, args=(), entry="main"):
    """:func:`_compare` on each of the paper's three configurations
    (the uncached rows of ``CONFIGURATIONS``) at 4 nodes; the legs must
    also agree on the value.  Returns it."""
    config = RunConfig(nodes=4, entry=entry, args=tuple(args))
    values = {}
    for name, leg in CONFIGURATIONS.items():
        if leg.cached:
            continue
        compiled = compile_earthc(source, filename, optimize=leg.optimize,
                                  config=leg.comm)
        values[name] = _compare(compiled, leg.run_config(config))
    assert len(set(values.values())) == 1, values
    return values.popitem()[1]


# ---------------------------------------------------------------------------
# Example programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filename, entry, args", [
    ("quickstart.py", "main", ()),
    ("earthc_language_tour.py", "main", (24,)),
    # The walkthrough program has no main; its dist() helper is a pure
    # entry point we can drive directly.
    ("closest_point_walkthrough.py", "dist", (1, 2, 4, 6)),
])
def test_example_programs_identical(filename, entry, args):
    _compare_three_ways(_example_source(filename), filename,
                        entry=entry, args=args)


# ---------------------------------------------------------------------------
# Globals and non-finite constants
# ---------------------------------------------------------------------------


#: name -> (source, args to main, the value every leg computes).
EDGE_PROGRAMS = {
    # A remote read whose value lands in a global: it stays blocking or
    # goes through a comm variable, never split-phase into the global.
    "global-scalar": (READ_INTO_GLOBAL, (5,), 5),
    # inf, -inf and nan as constants (one folded at compile time), in a
    # global, through a remote field and as a comparison operand.
    "non-finite": ("""
    struct cell { double d; struct cell *next; };
    double big;
    int main(int n) {
        struct cell *p;
        double a; double b; double c; double e;
        int r;
        p = (struct cell *) malloc(sizeof(struct cell)) @ 1;
        a = 1e400;
        b = -1e400;
        p->d = b;
        c = a - a;
        e = 1e400 - 1e400;
        big = a;
        r = n;
        if (c != c) r = r + 1;
        if (e != e) r = r + 2;
        if (p->d < 0.0) r = r + 10;
        if (big > 1e300) r = r + 100;
        if (p->d == -1e400) r = r + 1000;
        return r;
    }
    """, (5,), 1118),
    # A global pointer as the base of a hoisted read and a write.
    "global-pointer": (GLOBAL_POINTERS["moved-read"][0], (),
                       GLOBAL_POINTERS["moved-read"][1]),
}


@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_programs_identical_and_legs_agree(name):
    source, args, expected = EDGE_PROGRAMS[name]
    assert _compare_three_ways(source, f"{name}.ec", args=args) \
        == expected


#: A lossy, jittery network, the remote-data cache, and both.
VARIANTS = {
    "faults": {"faults": FaultPlan.from_profile("chaos", 6).spec()},
    "rcache": {"rcache_capacity": 8},
    "faults+rcache": {"faults": FaultPlan.from_profile("chaos", 6).spec(),
                      "rcache_capacity": 8},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_programs_identical_under_faults_and_rcache(name, variant):
    source, args, expected = EDGE_PROGRAMS[name]
    compiled = compile_earthc(source, f"{name}.ec", optimize=True)
    config = RunConfig(nodes=2, args=args, **VARIANTS[variant])
    assert _compare(compiled, config) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_programs_identical_across_shards(name, engine):
    """A placed call's activation may start from another shard's spawn
    message (``Interpreter.placed_fiber``); every engine runs it."""
    source, args, expected = EDGE_PROGRAMS[name]
    compiled = compile_earthc(source, f"{name}.ec", optimize=True)
    config = RunConfig(nodes=2, args=args, engine=engine)
    single = execute(compiled, config=config)
    sharded = run_sharded(compiled.simple, config.replace(shards=2),
                          inline=True)
    assert single.value == sharded.value == expected
    assert single.time_ns == sharded.time_ns
    assert single.stats.snapshot() == sharded.stats.snapshot()


# ---------------------------------------------------------------------------
# Olden benchmarks
# ---------------------------------------------------------------------------


#: A lossy, jittery network.
FAULT_SPEC = {"seed": 7, "drop_prob": 0.01, "jitter_ns": 2000.0}


@pytest.mark.parametrize("rcache", [0, 64], ids=["nocache", "rcache"])
@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_olden_identical_faults_rcache(name, rcache):
    """All engines stay bit-identical under a fault plan, with and
    without the remote-data cache (optimized program, 4 nodes)."""
    spec = next(s for s in catalog() if s.name == name)
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    _compare(compiled, RunConfig(nodes=4, args=tuple(spec.small_args),
                                 max_stmts=spec.max_stmts,
                                 faults=FAULT_SPEC,
                                 rcache_capacity=rcache))


def test_split_phase_read_completing_at_issue_is_coerced():
    """A split-phase read whose target is the issuing node lands its
    value as sync-on-use delivers a remote one: coerced to the
    variable's type (a ``char`` wraps; an ``int`` word read through a
    ``double *`` becomes a float, so ``d / 2`` does not truncate)."""
    source = """
    struct rec { int big; int small; };
    int as_char(struct rec *p) {
        char c;
        c = p->small;
        return c;
    }
    int as_double(struct rec *p) {
        double d; double *q;
        q = (double *) p;
        d = *q;
        return (int) (d / 2 * 2);
    }
    int main() {
        struct rec *here; struct rec *there;
        here = (struct rec *) malloc(sizeof(struct rec)) @ 0;
        there = (struct rec *) malloc(sizeof(struct rec)) @ 1;
        here->big = 7; here->small = 300;
        there->big = 9; there->small = 513;
        return as_char(here) * 1000000 + as_double(here) * 10000
            + as_char(there) * 100 + as_double(there);
    }
    """
    compiled = compile_earthc(source, optimize=True)
    for function, variable in (("as_char", "c"), ("as_double", "d")):
        landed = [stmt.lhs.name for stmt
                  in compiled.simple.functions[function].body.walk()
                  if getattr(stmt, "split_phase", False)]
        assert landed == [variable]
    _compare(compiled, RunConfig(nodes=2))
    result = execute(compiled, config=RunConfig(nodes=2))
    assert result.value == 44070109
    assert result.stats.local_reads == result.stats.remote_reads == 2


#: Full default-size equivalence is a slow sweep; it rides only under
#: the ``ci`` hypothesis profile (HYPOTHESIS_PROFILE=ci or CI=...),
#: exactly like the heavyweight property budgets in tests/conftest.py.
_FULL_SIZES = (os.environ.get("HYPOTHESIS_PROFILE",
                              "ci" if os.environ.get("CI") else "fast")
               == "ci")


@pytest.mark.skipif(not _FULL_SIZES,
                    reason="full-size sweep runs under the ci profile")
@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_olden_identical_full_size(name):
    """The same engine bit-identity, at the paper-scaled default
    sizes instead of the tier-1 small sizes."""
    spec = next(s for s in catalog() if s.name == name)
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    _compare(compiled, RunConfig(nodes=16, args=tuple(spec.default_args),
                                 max_stmts=spec.max_stmts))


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------


def test_unknown_engine_rejected():
    compiled = compile_earthc("int main() { return 0; }")
    machine = Machine(1)
    with pytest.raises(InterpreterError, match="unknown engine"):
        Interpreter(compiled.simple, machine, engine="jit")


def test_one_default_engine_everywhere():
    """``RunConfig``, ``JobSpec``, the interpreter and the CLI all
    default to the one ``DEFAULT_ENGINE``."""
    from repro.__main__ import _parse_args
    from repro.service.jobs import JobSpec

    assert DEFAULT_ENGINE in ENGINES
    assert RunConfig().engine == DEFAULT_ENGINE
    assert JobSpec("compile",
                   source="int main() { return 0; }").run.engine \
        == DEFAULT_ENGINE
    compiled = compile_earthc("int main() { return 41 + 1; }")
    interp = Interpreter(compiled.simple, Machine(1))
    assert interp.engine == DEFAULT_ENGINE
    assert interp.run().value == 42
    assert _parse_args(["prog.ec"]).engine == DEFAULT_ENGINE


def test_runtime_errors_match():
    """Faulting programs raise the same error text on both engines."""
    source = """
    struct cell { int value; };
    int main() {
        struct cell *p;
        p = NULL;
        return p->value;
    }
    """
    compiled = compile_earthc(source, optimize=False)
    messages = {}
    for engine in ENGINES:
        with pytest.raises(Exception) as info:
            execute(compiled, config=RunConfig(strict_nil_reads=True,
                                               engine=engine))
        messages[engine] = str(info.value)
    for engine in ENGINES:
        assert messages[engine] == messages["ast"], engine


# ---------------------------------------------------------------------------
# Property-based differential testing
# ---------------------------------------------------------------------------

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HEAVY = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(scalar_programs())
def test_scalar_programs_engines_agree(pair):
    source, _ = pair
    compiled = compile_earthc(source, optimize=True)
    _compare(compiled, RunConfig(nodes=2, max_stmts=2_000_000))


@HEAVY
@given(heap_programs())
def test_heap_programs_engines_agree(source):
    compiled = compile_earthc(source, optimize=True)
    _compare(compiled, RunConfig(nodes=4, max_stmts=2_000_000))
