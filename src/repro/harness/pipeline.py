"""End-to-end compile-and-run pipeline (the paper's Figure 2).

``compile_earthc`` drives: parse -> goto elimination -> (optional)
inlining -> type check -> simplify -> (optional) communication
optimization.  ``execute`` runs a compiled program on a fresh simulated
machine.  :data:`CONFIGURATIONS` declares the paper's configurations
(sequential C / simple / optimized, plus the remote-cache one) once, as
data; ``run_three_ways`` / ``run_four_ways`` run one source program
under them in this process, and the Table III / Figure 10 harness
(:mod:`repro.harness.experiments`) turns the same rows into service
``run`` jobs.

What the optimizer does is one :class:`CommConfig` (``config=`` on
:func:`compile_earthc`, ``comm_config=`` where a run follows); run
options travel as one :class:`repro.config.RunConfig` (``config=``).
Live object overrides -- an instantiated ``MachineParams``, ``Tracer``,
or ``FaultPlan`` -- are keyword arguments beside it.
"""

from __future__ import annotations

import sys
from typing import Dict, Mapping, NamedTuple, Optional, Set, Union

from repro.backend.threaded import render_threaded_program
from repro.comm.optimizer import (
    CommConfig,
    CommunicationOptimizer,
    OptimizationReport,
)
from repro.config import RunConfig
from repro.earth.faults import FaultPlan
from repro.errors import FrontendError, UsageError
from repro.earth.interpreter import Interpreter, RunResult
from repro.earth.machine import Machine
from repro.earth.params import MachineParams
from repro.earth.rcache import DEFAULT_CAPACITY, DEFAULT_LINE_WORDS
from repro.frontend.goto_elim import eliminate_gotos
from repro.frontend.inline import inline_functions
from repro.frontend.parser import parse_program
from repro.frontend.simplify import simplify_program
from repro.frontend.typecheck import check_program
from repro.obs.profile import PipelineProfile
from repro.obs.trace import Tracer
from repro.simple import nodes as s
from repro.simple.printer import print_program
from repro.simple.validate import validate_program

#: Version stamp of the compile pipeline, mixed into every
#: content-addressed cache key (:mod:`repro.service.cache`).  Bump it
#: whenever a change makes ``compile_earthc`` or the simulator produce
#: different output for the same (source, options) -- stale cached
#: artifacts then miss instead of serving wrong payloads.
PIPELINE_VERSION = "2026.10-effect-triples"


class CompiledProgram:
    """A SIMPLE program plus everything the pipeline learned about it."""

    def __init__(self, simple: s.SimpleProgram,
                 comm: Optional[CommConfig],
                 report: Optional[OptimizationReport],
                 inlined_calls: int,
                 profile: Optional[PipelineProfile] = None):
        self.simple = simple
        #: What the optimizer ran under; None when it did not run.
        self.comm = comm
        self.report = report
        self.inlined_calls = inlined_calls
        #: Per-phase compile timing (always recorded).
        self.profile = profile or PipelineProfile()

    @property
    def optimized(self) -> bool:
        return self.comm is not None

    def listing(self) -> str:
        """The SIMPLE listing (deterministic; used by examples/tests)."""
        return print_program(self.simple)

    def threaded_listing(self) -> str:
        """The Threaded-C (Phase III) listing."""
        return render_threaded_program(self.simple)

    def profile_text(self) -> str:
        """Human-readable compile profile: pipeline phase timings plus,
        when the optimizer ran, its per-pass timing/counter table."""
        text = self.profile.format_text()
        if self.report is not None and self.report.passes:
            text += "\n" + self.report.profile_text()
        return text

    def __repr__(self) -> str:
        tag = "optimized" if self.optimized else "simple"
        return f"CompiledProgram({tag}, {len(self.simple.functions)} funcs)"


def compile_earthc(
    source: str,
    filename: str = "<input>",
    optimize: bool = False,
    config: Optional[CommConfig] = None,
    inline: Union[bool, Set[str]] = False,
) -> CompiledProgram:
    """Compile EARTH-C source text.

    ``optimize`` runs the paper's communication optimization (Phase II)
    as ``config`` says (None: the defaults).
    ``inline`` enables local function inlining: ``True`` uses the size
    heuristic, a set of names restricts it to those functions.
    """
    if optimize and config is None:
        config = CommConfig()
    profile = PipelineProfile()
    try:
        with profile.phase("parse") as rec:
            program = parse_program(source, filename)
        rec.counters["functions"] = len(program.functions)
        with profile.phase("goto-elim"):
            eliminate_gotos(program)
        inlined = 0
        if inline:
            with profile.phase("inline") as rec:
                only = inline if isinstance(inline, set) else None
                inlined = inline_functions(program, only=only)
            rec.counters["inlined_calls"] = inlined
        with profile.phase("typecheck"):
            symbols = check_program(program)
        # Every SIMPLE statement of this program is created in here.
        with s.label_scope():
            with profile.phase("simplify") as rec:
                simple = simplify_program(program, symbols)
            with profile.phase("validate"):
                stats = validate_program(simple)
            rec.counters["basic_stmts"] = stats.basic_stmts
            report = None
            if optimize:
                with profile.phase("optimize") as rec:
                    report = CommunicationOptimizer(simple, config).run()
                rec.counters["basic_stmts"] = report.validation.basic_stmts
    except RecursionError:
        # Every phase from the parser to the optimizer's analyses
        # recurses over the program's nesting.
        raise FrontendError(
            f"{filename}: expressions or statements nest too deeply to "
            f"compile (host recursion limit "
            f"{sys.getrecursionlimit()})") from None
    return CompiledProgram(simple, config if optimize else None, report,
                           inlined, profile)


def execute(
    compiled: CompiledProgram,
    *,
    config: Optional[RunConfig] = None,
    params: Optional[MachineParams] = None,
    tracer: Optional[Tracer] = None,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Run a compiled program on a fresh machine.

    ``config`` (a :class:`repro.config.RunConfig`) is the one options
    object: node count, entry/args, engine, machine-parameter preset,
    remote-cache geometry, statement budget, fault spec, and trace
    flags; omitted, the defaults apply.

    Live-object overrides: ``params`` substitutes an exact
    :class:`MachineParams` instance for the config's preset;
    ``tracer`` attaches a caller-owned :class:`repro.obs.Tracer`;
    ``faults`` attaches an already-built (single-use)
    :class:`repro.earth.faults.FaultPlan` in place of the config's
    fault spec.  ``strict_nil_reads`` on a program compiled with
    ``speculative_reads`` is a :class:`UsageError`."""
    if config is None:
        config = RunConfig()
    if config.strict_nil_reads and compiled.comm is not None \
            and compiled.comm.speculative_reads:
        raise UsageError(
            "strict_nil_reads cannot run a program compiled with "
            "speculative_reads (compile with "
            "CommConfig(speculative_reads=False))")
    if config.shards > 1:
        if params is not None or tracer is not None \
                or faults is not None:
            raise UsageError(
                "sharded execution (shards > 1) builds its machines "
                "inside worker processes; live params=/tracer=/faults= "
                "overrides cannot cross that boundary -- use the "
                "declarative RunConfig fields instead")
        from repro.shard import run_sharded
        return run_sharded(compiled.simple, config)
    return make_interpreter(compiled, config, params=params, tracer=tracer,
                            faults=faults).run(config.entry, config.args)


def make_interpreter(
    compiled: CompiledProgram,
    config: RunConfig,
    *,
    params: Optional[MachineParams] = None,
    tracer: Optional[Tracer] = None,
    faults: Optional[FaultPlan] = None,
) -> Interpreter:
    """The fresh machine and interpreter :func:`execute` runs
    ``compiled`` on in one process (the overrides as there)."""
    if params is None:
        params = config.machine_params()
    if tracer is None:
        tracer = config.make_tracer()
    if faults is None:
        faults = config.fault_plan()
    machine = Machine(config.nodes, params,
                      strict_nil_reads=config.strict_nil_reads,
                      tracer=tracer, faults=faults)
    return Interpreter(compiled.simple, machine, max_stmts=config.max_stmts,
                       engine=config.engine)


def simple_baseline_config() -> CommConfig:
    """The paper's *simple* configuration: locality analysis and thread
    generation run (split-phase ops, sync-on-use), but no communication
    movement, redundancy elimination, blocking, or speculation."""
    return CommConfig(enable_forwarding=False, enable_placement=False,
                      enable_blocking=False, speculative_reads=False)


class Configuration(NamedTuple):
    """One row of :data:`CONFIGURATIONS`: how one of the paper's
    configurations is compiled, and what it fixes about the run."""

    #: ``compile_earthc(optimize=...)``.
    optimize: bool
    #: The :class:`CommConfig` it compiles under, or None: the
    #: caller's.  A baseline compiled under somebody's heuristics is no
    #: baseline, so ``simple`` fixes its own.
    comm: Optional[CommConfig]
    #: Does it run with the per-node remote-data cache on?
    cached: bool
    #: The :class:`RunConfig` fields it pins whatever the caller asks.
    pins: Mapping[str, object]

    def run_config(self, config: RunConfig) -> RunConfig:
        """The :class:`RunConfig` this configuration runs under when
        the caller asks for ``config``: its pins applied, the cache off
        -- or, on the cached leg, at the default geometry when
        ``config`` names none."""
        changes = dict(self.pins)
        if not self.cached:
            changes.update(rcache_capacity=0,
                           rcache_line_words=DEFAULT_LINE_WORDS)
        elif config.rcache_capacity == 0:
            changes.update(rcache_capacity=DEFAULT_CAPACITY,
                           rcache_line_words=DEFAULT_LINE_WORDS)
        return config.replace(**changes)


#: The paper's configurations, in Table III's column order -- the one
#: definition behind ``run_three_ways`` / ``run_four_ways`` and every
#: harness and ``batch`` leg:
#:
#: * ``sequential`` -- 1 node, no EARTH overheads (Table III column 1);
#: * ``simple`` -- without communication optimization.  Like the
#:   paper's simple versions, this still goes through locality analysis
#:   and Phase III thread generation, so remote operations are
#:   split-phase with sync-on-use -- they just are not *moved*, merged,
#:   or blocked;
#: * ``optimized`` -- after communication optimization;
#: * ``rcached`` -- the *optimized* program re-run with the per-node
#:   remote-data cache enabled (:mod:`repro.earth.rcache`).
CONFIGURATIONS: Dict[str, Configuration] = {
    "sequential": Configuration(
        optimize=False, comm=None, cached=False,
        pins={"nodes": 1, "params": "sequential-c"}),
    "simple": Configuration(
        optimize=True, comm=simple_baseline_config(), cached=False,
        pins={}),
    "optimized": Configuration(
        optimize=True, comm=None, cached=False, pins={}),
    "rcached": Configuration(
        optimize=True, comm=None, cached=True, pins={}),
}


def run_three_ways(
    source: str,
    filename: str = "<benchmark>",
    *,
    inline: Union[bool, Set[str]] = False,
    config: Optional[RunConfig] = None,
    faults: Optional[FaultPlan] = None,
    comm_config: Optional[CommConfig] = None,
) -> Dict[str, RunResult]:
    """The paper's three configurations of one program: the uncached
    rows of :data:`CONFIGURATIONS`, keyed by name.

    ``config`` is the run-side :class:`~repro.config.RunConfig`
    (default: 4 nodes; its rcache fields are ignored here -- the cached
    configuration is :func:`run_four_ways`' fourth leg).
    ``comm_config`` configures the *optimizer* for the optimized leg.

    All three must compute the same value (checked).  ``faults`` (or
    the config's fault spec) replays the identical seeded fault
    schedule in every configuration -- with faults enabled, the
    same-value check doubles as a chaos-differential oracle.
    """
    if config is None:
        config = RunConfig(nodes=4)
    if faults is not None:
        # A live plan is an override: its spec replaces the config's.
        config = config.replace(faults=faults.spec())
    return _run_configurations(source, filename, config, inline,
                               comm_config, rcached=False)


def run_four_ways(
    source: str,
    filename: str = "<benchmark>",
    config: Optional[RunConfig] = None,
    inline: Union[bool, Set[str]] = False,
    comm_config: Optional[CommConfig] = None,
) -> Dict[str, RunResult]:
    """Table III's fourth configuration on top of the paper's three:
    every row of :data:`CONFIGURATIONS`.

    The cache geometry comes from ``config``'s rcache fields; a config
    without one (capacity 0) gets the default geometry
    (:data:`~repro.earth.rcache.DEFAULT_CAPACITY` lines of
    :data:`~repro.earth.rcache.DEFAULT_LINE_WORDS` words).  All four
    configurations must compute the same value (checked) -- with the
    cache enabled this doubles as a coherence oracle."""
    if config is None:
        config = RunConfig(nodes=4)
    return _run_configurations(source, filename, config, inline,
                               comm_config, rcached=True)


def _run_configurations(source, filename, config: RunConfig, inline,
                        comm_config: Optional[CommConfig],
                        rcached: bool) -> Dict[str, RunResult]:
    """Shared engine of ``run_three_ways`` / ``run_four_ways``: each
    distinct set of compile options is compiled once (``rcached``
    re-runs the ``optimized`` program)."""
    results: Dict[str, RunResult] = {}
    compiled: Dict[tuple, CompiledProgram] = {}
    for name, leg in CONFIGURATIONS.items():
        if leg.cached and not rcached:
            continue
        options = (leg.optimize, leg.comm or comm_config)
        if options not in compiled:
            compiled[options] = compile_earthc(
                source, filename, optimize=leg.optimize,
                config=options[1], inline=inline)
        results[name] = execute(compiled[options],
                                config=leg.run_config(config))
    check_same_value({name: result.value
                      for name, result in results.items()})
    return results


def check_same_value(values: Dict[str, object]) -> None:
    """The optimizer moves communication, never meaning: every
    configuration of one program computes one value."""
    if len({_norm(value) for value in values.values()}) != 1:
        raise AssertionError(
            f"configurations disagree on the program result: {values}")


def run(
    source: str,
    filename: str = "<input>",
    optimize: bool = True,
    inline: Union[bool, Set[str]] = False,
    comm_config: Optional[CommConfig] = None,
    config: Optional[RunConfig] = None,
    params: Optional[MachineParams] = None,
    tracer: Optional[Tracer] = None,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Compile EARTH-C source and run it in one call -- the public
    one-stop entry point (``repro.run``).  Compile-side options are the
    loose kwargs (they configure :func:`compile_earthc`); run-side
    options travel in ``config``."""
    compiled = compile_earthc(source, filename, optimize=optimize,
                              config=comm_config, inline=inline)
    return execute(compiled, params=params, tracer=tracer,
                   faults=faults, config=config or RunConfig())


#: Public alias: ``repro.compile_source`` is the stable name for the
#: compile entry point (the historical ``compile_earthc`` stays).
compile_source = compile_earthc


def _norm(value):
    if isinstance(value, float):
        return round(value, 6)
    return value
