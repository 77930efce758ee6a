"""The one declaration of every run option.

:class:`RunConfig` is a frozen, JSON-round-trippable value object that
names *everything about how to run* a compiled program and nothing
about how it was compiled (source, optimization level, inlining and
the optimizer's :class:`~repro.comm.optimizer.CommConfig` are
:func:`~repro.harness.pipeline.compile_earthc`'s).  A run option's name,
default and legal range are written on it and nowhere else: every run
layer takes a ``RunConfig``, a service ``JobSpec`` carries one and
derives its flat wire keys from :data:`WIRE_FIELDS`, the CLI verbs
attach rows of :data:`RUN_FLAGS`, and :meth:`RunConfig.to_json` is what
the service hashes into its content-addressed cache key -- so a new
field changes the key instead of silently aliasing cached results.

Live objects (an instantiated :class:`~repro.earth.params.MachineParams`,
:class:`~repro.obs.trace.Tracer`, or :class:`~repro.earth.faults.FaultPlan`)
are *overrides*, not config: they stay as explicit keyword arguments on
the run functions for callers that need exact instances, while RunConfig
carries their declarative forms (a params preset name plus rcache
fields, ``trace``/``trace_capacity`` flags, a fault spec dict).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.earth.faults import PROFILES, FaultPlan, plan_from_cli
from repro.earth.interpreter import DEFAULT_ENGINE, DEFAULT_MAX_STMTS, ENGINES
from repro.earth.params import MachineParams
from repro.earth.rcache import DEFAULT_LINE_WORDS
from repro.errors import ReproError, UsageError

#: Named machine-parameter presets a serialized config may request
#: (jobs travel as JSON, so they name a preset instead of carrying a
#: live :class:`MachineParams`).
PARAMS_PRESETS = ("default", "sequential-c")

#: Field metadata: how a run is executed or observed, not what it
#: computes -- such a field stays out of service job specs.
_OFF_WIRE = {"wire": False}


@dataclass(frozen=True)
class RunConfig:
    """How to run one compiled program on the simulated machine.

    Frozen and hashable-by-value: two configs with equal fields produce
    byte-identical runs of the same compiled program, which is exactly
    the contract the service's content-addressed cache needs.
    """

    #: The most nodes a config describes: four times the largest
    #: scenario's (``em3d1024``).  A node costs ~0.65 KB before the
    #: program runs, so an unbounded count is a memory request.
    MAX_NODES = 4096
    nodes: int = 1
    #: Number of OS worker processes the simulated nodes are partitioned
    #: across (:mod:`repro.shard`); 1 runs single-process.  Sharding is
    #: an execution strategy, not a semantic knob -- results are
    #: bit-identical for every value -- but it participates in the cache
    #: key like everything else (conservative: merged traces differ in
    #: no observable way, but artifact provenance records how a result
    #: was produced).
    shards: int = field(default=1, metadata=_OFF_WIRE)
    entry: str = "main"
    args: Tuple[Union[int, float], ...] = ()
    engine: str = DEFAULT_ENGINE
    params: str = "default"
    #: Per-node remote-data cache geometry (``repro.earth.rcache``);
    #: capacity 0 disables the cache entirely.
    rcache_capacity: int = 0
    rcache_line_words: int = DEFAULT_LINE_WORDS
    #: The largest statement budget a config accepts: the default, the
    #: budget every catalog benchmark, shard scenario and bench input
    #: runs under.  A budget is host time (a program that loops runs
    #: until its budget is spent) and ``serve`` sets no job timeout by
    #: default, so an unbounded one holds a worker for as long as the
    #: gateway lives.
    MAX_STMTS = DEFAULT_MAX_STMTS
    max_stmts: int = DEFAULT_MAX_STMTS
    strict_nil_reads: bool = False
    #: Fault-plan spec dict, or None for a clean network; stored
    #: complete (:meth:`FaultPlan.spec`), so every spelling of one
    #: schedule is one config.  A spec, not a plan: plans are
    #: single-use, the config is reusable -- :meth:`fault_plan` mints a
    #: fresh plan.
    faults: Optional[Dict[str, object]] = None
    trace: bool = field(default=False, metadata=_OFF_WIRE)
    trace_capacity: Optional[int] = field(default=None, metadata=_OFF_WIRE)

    def __post_init__(self):
        # Types first: a job spec arrives as JSON, where 2.5, true and
        # "abc" are all spellable and none of them is a node count
        # (type(), not isinstance(): a bool is an int to isinstance).
        for name in ("nodes", "shards", "rcache_capacity",
                     "rcache_line_words", "max_stmts"):
            if type(getattr(self, name)) is not int:
                raise UsageError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        for name in ("strict_nil_reads", "trace"):
            if type(getattr(self, name)) is not bool:
                raise UsageError(f"{name} must be a bool, got "
                                 f"{getattr(self, name)!r}")
        if not isinstance(self.entry, str):
            raise UsageError(f"entry must be a function name, got "
                             f"{self.entry!r}")
        if not isinstance(self.args, (list, tuple)) or any(
                type(arg) not in (int, float) for arg in self.args):
            raise UsageError(f"args must be a sequence of numbers, got "
                             f"{self.args!r}")
        # JSON spells NaN and Infinity too, and neither is an argument.
        if any(type(arg) is float and not math.isfinite(arg)
               for arg in self.args):
            raise UsageError(f"args must be finite numbers, got "
                             f"{list(self.args)!r}")
        # A C int (not echoed: a long enough int has no repr).
        if any(type(arg) is int and not -2**31 <= arg < 2**31
               for arg in self.args):
            raise UsageError("args must be 32-bit ints (-2147483648 .. "
                             "2147483647); one is out of range")
        object.__setattr__(self, "args", tuple(self.args))
        if self.nodes < 1:
            raise UsageError(f"nodes must be >= 1, got {self.nodes}")
        if self.nodes > self.MAX_NODES:
            raise UsageError(f"nodes must be <= {self.MAX_NODES}, got "
                             f"{self.nodes}")
        if self.shards < 1:
            raise UsageError(f"shards must be >= 1, got {self.shards}")
        if self.shards > self.nodes:
            raise UsageError(
                f"cannot split {self.nodes} node(s) across "
                f"{self.shards} shard(s): --shards must not exceed "
                f"the node count")
        if self.engine not in ENGINES:
            raise UsageError(f"unknown engine {self.engine!r} "
                             f"(known: {', '.join(ENGINES)})")
        if self.params not in PARAMS_PRESETS:
            raise UsageError(
                f"unknown params preset {self.params!r} "
                f"(known: {', '.join(PARAMS_PRESETS)})")
        if self.rcache_capacity < 0:
            raise UsageError("rcache_capacity must be >= 0 (0 disables)")
        if self.rcache_line_words < 1:
            raise UsageError("rcache_line_words must be >= 1")
        if self.max_stmts < 1:
            raise UsageError(f"max_stmts must be >= 1, got "
                             f"{self.max_stmts}")
        if self.max_stmts > self.MAX_STMTS:
            raise UsageError(f"max_stmts must be <= {self.MAX_STMTS}")
        if self.trace_capacity is not None and (
                type(self.trace_capacity) is not int
                or self.trace_capacity <= 0):
            raise UsageError("trace_capacity must be a positive integer")
        if self.faults is not None:
            if not isinstance(self.faults, dict):
                raise UsageError(f"faults must be a fault spec object, "
                                 f"got {self.faults!r}")
            # Validate eagerly so a bad spec fails where it was written,
            # not inside a worker process; keep the complete spec, so
            # one fault schedule has one cache address.
            object.__setattr__(self, "faults",
                               FaultPlan.from_spec(self.faults).spec())

    # -- materialization ---------------------------------------------------

    def machine_params(self) -> MachineParams:
        """A fresh :class:`MachineParams` for this config: the named
        preset with the rcache fields applied."""
        if self.params == "sequential-c":
            params = MachineParams.sequential_c()
        else:
            params = MachineParams()
        params.rcache_capacity = self.rcache_capacity
        params.rcache_line_words = self.rcache_line_words
        return params

    def fault_plan(self) -> Optional[FaultPlan]:
        """A fresh single-use :class:`FaultPlan` (or None).  Each call
        returns a new plan replaying the identical fault schedule."""
        if self.faults is None:
            return None
        return FaultPlan.from_spec(self.faults)

    def make_tracer(self):
        """A fresh :class:`~repro.obs.trace.Tracer` when tracing is on,
        else None."""
        if not self.trace:
            return None
        from repro.obs.trace import Tracer
        return Tracer(capacity=self.trace_capacity)

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return RunConfig(**{**vars(self), **changes})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Stable JSON form.  This exact dict is hashed into service
        cache keys, so every field -- current and future -- changes the
        key (the instance dict holds exactly the fields; nothing to
        forget)."""
        return dict(vars(self), args=list(self.args))

    def wire(self) -> Dict[str, object]:
        """The slice of :meth:`to_json` a service job spec carries
        (:data:`WIRE_FIELDS`), as flat ``JobSpec`` keywords."""
        data = self.to_json()
        for name in _OFF_WIRE_FIELDS:
            del data[name]
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "RunConfig":
        """Inverse of :meth:`to_json`.  Unknown keys are rejected so
        schema drift between service peers fails loudly."""
        if not isinstance(data, dict):
            raise ReproError(f"run config must be an object, got "
                             f"{type(data).__name__}")
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown run config fields: {sorted(unknown)}")
        return cls(**{key: value for key, value in data.items()
                      if value is not None or key == "faults"})

    @classmethod
    def from_cli_args(cls, opts, args: Optional[Sequence] = None
                      ) -> "RunConfig":
        """Build a config from an :mod:`argparse` namespace
        (:func:`cli_run_options`; a field no flag of the parser sets
        keeps its default).  ``args`` is the program-argument list --
        the CLI parses its ``--args`` string (and applies benchmark
        catalog defaults) before building the config."""
        return cls(args=tuple(args if args is not None else ()),
                   **cli_run_options(opts))


#: The run options a service job spec carries, in declaration order:
#: every field but the ones marked off the wire.
WIRE_FIELDS = tuple(spec.name for spec in dataclasses.fields(RunConfig)
                    if spec.metadata.get("wire", True))
_OFF_WIRE_FIELDS = tuple(spec.name for spec in dataclasses.fields(RunConfig)
                         if spec.name not in WIRE_FIELDS)


#: Every run flag, declared once: option string -> (the RunConfig field
#: it sets or feeds, argparse keywords).  A verb's parser attaches the
#: ones it has by option string; :func:`cli_run_options` reads them
#: back.
RUN_FLAGS = {
    "--nodes": ("nodes", dict(
        type=int, help="number of EARTH nodes (default %(default)s)")),
    "--shards": ("shards", dict(
        type=int, metavar="K",
        help="with --run: partition the simulated nodes across K "
             "worker processes (repro.shard); results are "
             "bit-identical to --shards 1, only wall-clock changes "
             "(default %(default)s)")),
    "--entry": ("entry", dict(
        help="function to run (default %(default)s)")),
    "--engine": ("engine", dict(
        choices=ENGINES,
        help="execution engine: 'codegen' emits specialized Python "
             "source per function (default), 'ast' walks the tree "
             "(reference)")),
    "--params": ("params", dict(
        help=f"machine-parameter preset: "
             f"{', '.join(PARAMS_PRESETS)} (default %(default)s)")),
    "--rcache-capacity": ("rcache_capacity", dict(
        type=int, metavar="LINES",
        help="per-node remote-data cache capacity in lines (0 = "
             "disabled, the default; the machine is then byte-"
             "identical to the uncached simulator)")),
    "--rcache-line": ("rcache_line_words", dict(
        type=int, metavar="WORDS",
        help="remote-data cache line size in words (default "
             "%(default)s)")),
    "--max-stmts": ("max_stmts", dict(
        type=int, metavar="N",
        help="abort the run after N interpreted statements "
             "(infinite-loop guard; at most, and by default, "
             f"{DEFAULT_MAX_STMTS})")),
    "--faults": ("faults", dict(
        type=int, metavar="SEED",
        help="inject deterministic network faults from this seed "
             "(drops, jitter, SU slowdowns); the resilience layer "
             "retries until delivery")),
    "--fault-profile": ("faults", dict(
        choices=sorted(PROFILES),
        help="named fault configuration (requires --faults; "
             "--fault-drop/--fault-jitter override its fields)")),
    "--fault-drop": ("faults", dict(
        type=float, metavar="P",
        help="per-leg message drop probability in [0, 1] (requires "
             "--faults)")),
    "--fault-jitter": ("faults", dict(
        type=float, metavar="NS",
        help="max extra one-way latency per leg in ns (requires "
             "--faults)")),
    "--trace": ("trace", dict(
        metavar="FILE",
        help="with --run: record a structured trace and write it as "
             "Chrome trace-event JSON (chrome://tracing / Perfetto)")),
    "--trace-capacity": ("trace_capacity", dict(
        type=int, metavar="N",
        help="bound trace memory to the most recent N events (ring "
             "buffer; default unbounded)")),
}


#: Fields assembled from several flags (a fault spec from seed + profile
#: + knobs, the trace switch from a file name); their flags default to
#: None, "not given".  Every other flag's value *is* its field's value,
#: and its default the field's.
ASSEMBLED_FIELDS = ("faults", "trace")


def flag_dest(option: str) -> str:
    """The namespace attribute :mod:`argparse` stores ``option`` in."""
    return option.lstrip("-").replace("-", "_")


def int_list(text: str, flag: str) -> List[int]:
    """The value of a "comma-separated integers" flag (``--args``,
    ``--nodes`` as a sweep axis); anything else is a usage error that
    names the flag."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated integers, "
                         f"got {text!r}") from None


def cli_run_options(opts) -> Dict[str, object]:
    """The run options an :mod:`argparse` namespace carries, as
    :class:`RunConfig` (or ``JobSpec``) keywords.  Each verb's parser
    attaches a subset of :data:`RUN_FLAGS`; only the fields that subset
    sets appear, so whatever is built from the result keeps its own
    default for the rest."""
    given = vars(opts)
    options = {field: given[flag_dest(option)]
               for option, (field, _) in RUN_FLAGS.items()
               if field not in ASSEMBLED_FIELDS
               and flag_dest(option) in given}
    knobs = [given.get(name) for name in
             ("fault_profile", "fault_drop", "fault_jitter")]
    if given.get("faults") is not None:
        options["faults"] = plan_from_cli(given["faults"], *knobs).spec()
    elif any(knob is not None for knob in knobs):
        raise UsageError("--fault-drop/--fault-jitter/--fault-profile "
                         "require --faults SEED")
    if "trace" in given:
        options["trace"] = given["trace"] is not None
    return options


def config_digest(config: RunConfig) -> str:
    """A short stable digest of a config (used in labels/filenames)."""
    import hashlib
    text = json.dumps(config.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


__all__ = ["RunConfig", "config_digest", "cli_run_options",
           "flag_dest", "int_list", "RUN_FLAGS", "ASSEMBLED_FIELDS",
           "WIRE_FIELDS", "PARAMS_PRESETS", "DEFAULT_MAX_STMTS"]
