"""Regression tests for codegen's per-function fallback to the walker.

Any function the code generator cannot prove it can emit runs on the
AST walker instead (``WalkedFunction``), called through the same engine
cells as generated functions.  Real programs never trip this, so these
tests force it: each group of ``_gen_*`` emitters is made to fail, and
the resulting mixed execution -- generated functions calling walked
ones, walked activations spawned by generated callers and across shard
boundaries -- must be bit-identical to the pure ``ast`` engine in
value, output, simulated time, statistics and the full event trace,
with and without fault injection, the remote-data cache, and sharding.
"""

import pytest

from repro.config import RunConfig
from repro.earth import codegen
from repro.earth.faults import FaultPlan
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog, get_benchmark
from repro.shard.runner import run_sharded

from tests.chaos.scripted import RMW_LOOP

#: Making these emitters raise forces every function containing such a
#: statement onto the walker.  On ``power`` the first three leave
#: ``main`` generated and walk what it calls; the next two walk
#: ``main`` and leave leaf functions generated; the last walks
#: everything.
FALLBACK_SETS = [
    ("_gen_alloc",),
    ("_gen_forall", "_gen_par"),
    ("_gen_if",),
    ("_gen_call",),
    ("_gen_alloc", "_gen_blkmov", "_gen_shared"),
    ("_gen_assign", "_gen_call", "_gen_alloc",
     "_gen_blkmov", "_gen_shared"),
]

#: ``rmw_loop`` is one function with no if, par or forall.
POWER_ONLY = FALLBACK_SETS[1:3]

CASES = [pytest.param(methods, program,
                      id="+".join(n.replace("_gen_", "") for n in methods)
                      + "-" + program)
         for methods in FALLBACK_SETS for program in ("rmw_loop", "power")
         if program == "power" or methods not in POWER_ONLY]

VARIANTS = {
    "clean": {},
    "faults": {"faults": FaultPlan.from_profile("chaos", 6).spec()},
    "rcache": {"rcache_capacity": 8},
    "faults+rcache": {"faults": FaultPlan.from_profile("chaos", 6).spec(),
                      "rcache_capacity": 8},
}


def _force_fallback(monkeypatch, methods):
    """Make the chosen emitters always raise ``_Uncompilable``; returns
    ``(walked, generated)``, two sets kept equal to the names of the
    functions that fell back and of those that were emitted."""
    for name in methods:
        def boom(self, stmt, *args, _name=name, **kwargs):
            raise codegen._Uncompilable(f"forced: {_name}")
        monkeypatch.setattr(codegen._CodeGenerator, name, boom)
    walked, generated = set(), set()
    original = codegen.CodegenEngine.function

    def recording(self, name):
        result = original(self, name)
        walked.update(self.fallbacks)
        generated.update(self.sources)
        return result

    monkeypatch.setattr(codegen.CodegenEngine, "function", recording)
    return walked, generated


def _identical(a, b):
    assert a.value == b.value
    assert a.output == b.output
    assert a.time_ns == b.time_ns
    assert a.stats.snapshot() == b.stats.snapshot()
    assert list(a.tracer.events) == list(b.tracer.events)
    assert a.tracer.dropped == b.tracer.dropped


def _compile(program):
    """A fresh compile per case: a program remembers what codegen did
    with each of its functions (``SimpleProgram.codegen_memo``), so a
    program shared across cases would replay an earlier case's
    fallbacks."""
    if program == "rmw_loop":
        return (compile_earthc(RMW_LOOP, "rmw_loop.ec", optimize=True),
                RunConfig(nodes=2, trace=True))
    power = get_benchmark("power")
    return (compile_earthc(power.source(), power.filename, optimize=True,
                           inline=power.inline),
            RunConfig(nodes=4, args=tuple(power.small_args), trace=True))


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("methods, program", CASES)
def test_mixed_run_bit_identical_to_ast(monkeypatch, methods, program,
                                        variant):
    compiled, config = _compile(program)
    config = config.replace(**VARIANTS[variant])
    reference = execute(compiled, config=config.replace(engine="ast"))
    walked, generated = _force_fallback(monkeypatch, methods)
    mixed = execute(compiled, config=config.replace(engine="codegen"))
    _identical(mixed, reference)
    assert walked  # the walker actually took over
    if program == "power" and len(methods) < 5:
        assert generated  # and did not take over everything


@pytest.mark.parametrize("methods, program", CASES)
def test_mixed_run_bit_identical_across_shards(monkeypatch, methods,
                                               program):
    """Walked activations also start from another shard's spawn
    message (``Interpreter.placed_fiber``)."""
    compiled, config = _compile(program)
    reference = execute(compiled, config=config.replace(engine="ast"))
    walked, _ = _force_fallback(monkeypatch, methods)
    mixed = run_sharded(compiled.simple,
                        config.replace(engine="codegen", shards=2),
                        inline=True)
    _identical(mixed, reference)
    assert walked


def test_warm_run_stays_on_the_walker_and_emits_nothing(monkeypatch):
    """A fallback is remembered with the program: a second run binds
    the walker for the same functions without emitting any source, and
    is bit-identical to the first."""
    compiled, config = _compile("power")
    walked, generated = _force_fallback(monkeypatch, ("_gen_call",))
    cold = execute(compiled, config=config)
    cold_walked, cold_generated = set(walked), set(generated)
    assert cold_walked and cold_generated
    walked.clear()
    generated.clear()
    emitted = []
    original = codegen._CodeGenerator.generate
    monkeypatch.setattr(codegen._CodeGenerator, "generate",
                        lambda self: emitted.append(self) or original(self))
    warm = execute(compiled, config=config)
    assert emitted == []
    assert walked == cold_walked and generated == cold_generated
    _identical(warm, cold)


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_unforced_codegen_engine_does_not_fall_back(monkeypatch, name):
    """Every Olden function lowers to generated source: on an unpatched
    generator the walker fallback stays cold for all ten benchmarks
    (100% codegen coverage)."""
    walked, generated = _force_fallback(monkeypatch, ())
    spec = get_benchmark(name)
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    execute(compiled,
            config=RunConfig(nodes=4, args=tuple(spec.small_args),
                             engine="codegen"))
    assert walked == set() and generated
