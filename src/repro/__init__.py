"""repro -- a reproduction of *Communication Optimizations for Parallel C
Programs* (Zhu & Hendren, PLDI 1998).

The package contains a complete toolchain:

* :mod:`repro.frontend` -- EARTH-C lexer/parser/type checker, goto
  elimination, local function inlining, and the Simplify lowering;
* :mod:`repro.simple` -- the SIMPLE compositional IR;
* :mod:`repro.analysis` -- points-to, connection/alias queries,
  read/write sets, locality and nilness analyses;
* :mod:`repro.comm` -- the paper's contribution: possible-placement
  analysis and communication selection (pipelining / blocking), plus
  redundant remote access elimination;
* :mod:`repro.backend` -- the Threaded-C fiber partitioner;
* :mod:`repro.earth` -- a discrete-event EARTH-MANNA simulator, with an
  optional per-node remote-data cache (:mod:`repro.earth.rcache`);
* :mod:`repro.olden` -- the five Olden benchmarks in EARTH-C;
* :mod:`repro.harness` -- experiment drivers regenerating the paper's
  tables and figures;
* :mod:`repro.service` -- batch/serving layer with a content-addressed
  artifact cache.

Stable public surface
---------------------

The names in ``__all__`` are the supported API.  The core workflow is
three names::

    from repro import RunConfig, compile_source, run

    # one-stop: compile + run
    result = run(SOURCE, config=RunConfig(nodes=4, args=(8,)))
    print(result.value, result.time_ns, result.stats)

    # or staged, reusing the compiled program across configs
    compiled = compile_source(SOURCE, optimize=True)
    result = execute(compiled, config=RunConfig(nodes=4,
                                                rcache_capacity=64))

:class:`RunConfig` is *the* options object for every layer that runs a
program -- the CLI, :func:`execute`, :func:`run_three_ways` /
:func:`run_four_ways`, and service jobs.  Live instances of
:class:`MachineParams`, :class:`Tracer`, and fault plans are keyword
overrides beside it.  The optimizer's heuristic preset is
:class:`OptConfig` (``RunConfig(opt=...)``,
``compile_source(..., opt=...)``, the ``--opt-preset`` CLI flag).

2.0 removed what 1.x deprecated -- the loose keyword arguments
(``execute(compiled, num_nodes=4, ...)`` is a ``TypeError``), the
``LOOP_FREQUENCY_FACTOR``-style module constants -- and the
closure engine: ``engine`` is ``"codegen"`` (default) or
``"ast"``.  2.1 removed the separate cost-model class: Table I is
:class:`MachineParams`, the blocking decision
:meth:`OptConfig.should_block`.  2.2 removed the bundle job kinds from
the wire (a job is ``compile`` or ``run``; the paper's three/four
configurations are a sweep of ``run`` jobs, ``batch``'s default) and
the load-test verb with its generator (``bench/`` is the load harness).
2.3 reduced :class:`OptConfig` to its ``probabilistic`` switch (the
``legacy`` and ``probabilistic`` presets): the paper's weights are
constants of :mod:`repro.comm.optconfig`, and the eight tuning flags
``--opt-loop-weight`` ... ``--opt-private-lines`` are gone.  2.4
removed the compile options no caller set: struct field reordering
(``--reorder-fields``, with its keyword on :func:`compile_source` and
:func:`run` and its job key) and the prefix block moves it fed, so a
block move copies the whole struct; and the two :class:`CommConfig`
switches every configuration left on -- locality analysis and
residual split-phase marking now always run.  The legacy preset,
however spelled, is the same as no ``opt`` (one cache address).
"""

from repro.comm.optconfig import OptConfig
from repro.comm.optimizer import (
    CommConfig,
    CommunicationOptimizer,
    OptimizationReport,
    optimize_program,
)
from repro.config import RunConfig, config_digest
from repro.earth.interpreter import Interpreter, RunResult
from repro.earth.machine import Machine
from repro.earth.params import MachineParams
from repro.errors import ReproError
from repro.harness.pipeline import (
    CompiledProgram,
    compile_earthc,
    compile_source,
    execute,
    run,
    run_four_ways,
    run_three_ways,
)
from repro.obs.trace import Tracer
from repro.service.cache import ArtifactCache

__version__ = "2.4.0"

__all__ = [
    "ArtifactCache",
    "CommConfig",
    "CommunicationOptimizer",
    "CompiledProgram",
    "Interpreter",
    "Machine",
    "MachineParams",
    "OptConfig",
    "OptimizationReport",
    "ReproError",
    "RunConfig",
    "RunResult",
    "Tracer",
    "__version__",
    "compile_earthc",
    "compile_source",
    "config_digest",
    "execute",
    "optimize_program",
    "run",
    "run_four_ways",
    "run_three_ways",
]
