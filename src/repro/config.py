"""The one options object for running compiled programs.

Historically every layer that could run a program -- the CLI,
:func:`repro.harness.pipeline.execute`, ``run_three_ways``, the service
job executor -- grew its own copy of the same loose kwargs (``nodes``,
``engine``, ``max_stmts``, fault spec, trace flags ...).  Adding one
machine knob meant threading it through four signatures and, worse, the
service cache key had to be updated by hand or stale cached payloads
would alias the new knob.

:class:`RunConfig` collapses those surfaces: it is a frozen, JSON-round-
trippable value object that names *everything about how to run* a
compiled program (it deliberately excludes compile-side options --
source, optimization level, inlining -- which stay on
:func:`~repro.harness.pipeline.compile_earthc`).  All run layers accept
it, and :meth:`RunConfig.to_json` is the canonical serialization the
service hashes into its content-addressed cache key -- so any new field
(like the remote-cache geometry added with it) changes the key
automatically instead of silently aliasing cached results.

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
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.comm.optconfig import OptConfig, resolve_opt
from repro.earth.faults import FaultPlan, plan_from_cli
from repro.earth.interpreter import DEFAULT_ENGINE, ENGINES
from repro.earth.params import MachineParams
from repro.errors import ReproError, UsageError

#: Named machine-parameter presets a serialized config may request
#: (jobs travel as JSON, so they name a preset instead of carrying a
#: live :class:`MachineParams`).
PARAMS_PRESETS = ("default", "sequential-c")

#: Default statement budget (infinite-loop guard).
DEFAULT_MAX_STMTS = 200_000_000


@dataclass(frozen=True)
class RunConfig:
    """How to run one compiled program on the simulated machine.

    Frozen and hashable-by-value: two configs with equal fields produce
    byte-identical runs of the same compiled program, which is exactly
    the contract the service's content-addressed cache needs.
    """

    nodes: int = 1
    #: Number of OS worker processes the simulated nodes are partitioned
    #: across (:mod:`repro.shard`); 1 runs single-process.  Sharding is
    #: an execution strategy, not a semantic knob -- results are
    #: bit-identical for every value -- but it participates in the cache
    #: key like everything else (conservative: merged traces differ in
    #: no observable way, but artifact provenance records how a result
    #: was produced).
    shards: int = 1
    entry: str = "main"
    args: Tuple[Union[int, float], ...] = ()
    engine: str = DEFAULT_ENGINE
    params: str = "default"
    #: Per-node remote-data cache geometry (``repro.earth.rcache``);
    #: capacity 0 disables the cache entirely.
    rcache_capacity: int = 0
    rcache_line_words: int = 16
    max_stmts: int = DEFAULT_MAX_STMTS
    strict_nil_reads: bool = False
    #: Fault-plan spec dict (:meth:`FaultPlan.spec`), or None for a
    #: clean network.  A spec, not a plan: plans are single-use, the
    #: config is reusable -- :meth:`fault_plan` mints a fresh plan.
    faults: Optional[Dict[str, object]] = None
    trace: bool = False
    trace_capacity: Optional[int] = None
    #: Optimizer heuristic knobs (:class:`~repro.comm.optconfig.OptConfig`),
    #: or None for the legacy defaults.  Accepts the loose forms job
    #: specs travel as (preset name, JSON dict) and normalizes them.
    #: Compile-side, unlike every other field -- carried here so
    #: heuristic variants flow through ``config_digest``/cache keys and
    #: the layers that compile-and-run (``run``, ``run_three_ways``,
    #: service jobs) pick it up without a parallel options object.
    opt: Optional[OptConfig] = None

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "opt", resolve_opt(self.opt))
        if self.nodes < 1:
            raise ReproError(f"nodes must be >= 1, got {self.nodes}")
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
            raise ReproError(
                f"unknown params preset {self.params!r} "
                f"(known: {', '.join(PARAMS_PRESETS)})")
        if self.rcache_capacity < 0:
            raise ReproError("rcache_capacity must be >= 0 (0 disables)")
        if self.rcache_line_words < 1:
            raise ReproError("rcache_line_words must be >= 1")
        if self.max_stmts < 1:
            raise ReproError(f"max_stmts must be >= 1, got "
                             f"{self.max_stmts}")
        if self.trace_capacity is not None and self.trace_capacity <= 0:
            raise ReproError("trace_capacity must be positive")
        if self.faults is not None:
            object.__setattr__(self, "faults", dict(self.faults))
            # Validate eagerly so a bad spec fails where it was written,
            # not inside a worker process.
            FaultPlan.from_spec(self.faults)

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
        return dataclasses.replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Stable JSON form.  This exact dict is hashed into service
        cache keys, so every field -- current and future -- changes the
        key (``dataclasses.fields`` enumerates them; nothing to forget)."""
        out: Dict[str, object] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, OptConfig):
                value = value.to_json()
            out[spec.name] = value
        return out

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
        """Build a config from an :mod:`argparse` namespace.

        Tolerant of missing attributes (the serve/submit/batch parsers
        each define a different subset of the run flags): absent options
        fall back to the field defaults.  ``args`` overrides the
        program-argument list -- the CLI parses its ``--args`` string
        (and applies benchmark catalog defaults) before building the
        config."""
        faults = None
        if getattr(opts, "faults", None) is not None:
            faults = plan_from_cli(
                opts.faults,
                getattr(opts, "fault_profile", None),
                getattr(opts, "fault_drop", None),
                getattr(opts, "fault_jitter", None)).spec()
        max_stmts = getattr(opts, "max_stmts", None)
        return cls(
            nodes=getattr(opts, "nodes", None) or 1,
            # Not ``or 1``: --shards 0 must reach validation, not be
            # silently coerced into a single-process run.
            shards=(1 if getattr(opts, "shards", None) is None
                    else opts.shards),
            entry=getattr(opts, "entry", None) or "main",
            args=tuple(args if args is not None else ()),
            engine=getattr(opts, "engine", None) or DEFAULT_ENGINE,
            params=getattr(opts, "params", None) or "default",
            rcache_capacity=getattr(opts, "rcache_capacity", None) or 0,
            rcache_line_words=getattr(opts, "rcache_line", None) or 16,
            opt=opt_from_cli_args(opts),
            max_stmts=DEFAULT_MAX_STMTS if max_stmts is None
            else max_stmts,
            strict_nil_reads=bool(getattr(opts, "strict_nil_reads",
                                          False)),
            faults=faults,
            trace=getattr(opts, "trace", None) is not None,
            trace_capacity=getattr(opts, "trace_capacity", None),
        )

    def __str__(self) -> str:
        parts = [f"nodes={self.nodes}", f"engine={self.engine}"]
        if self.shards != 1:
            parts.append(f"shards={self.shards}")
        if self.params != "default":
            parts.append(f"params={self.params}")
        if self.rcache_capacity:
            parts.append(f"rcache={self.rcache_capacity}"
                         f"x{self.rcache_line_words}w")
        if self.faults is not None:
            parts.append(f"faults=seed{self.faults.get('seed')}")
        if self.trace:
            parts.append("trace")
        if self.opt is not None:
            parts.append(str(self.opt))
        return f"RunConfig({', '.join(parts)})"


#: ``--opt-*`` flag name -> OptConfig field (shared by the CLI parsers
#: and :func:`opt_from_cli_args`, so the two cannot drift).
OPT_CLI_FIELDS = {
    "opt_loop_weight": "loop_weight",
    "opt_branch_weight": "branch_weight",
    "opt_probabilistic": "probabilistic",
    "opt_block_threshold": "block_access_threshold",
    "opt_min_expected": "min_expected_accesses",
    "opt_spurious_ratio": "max_spurious_ratio",
    "opt_shape": "blkmov_shape",
    "opt_private_lines": "private_lines",
}


def opt_from_cli_args(opts) -> Optional[OptConfig]:
    """``--opt-*`` argparse flags -> an :class:`OptConfig` (or None
    when no opt flag was given, meaning "legacy default, unset").
    ``--opt-preset`` names the base; individual flags override its
    fields."""
    preset = getattr(opts, "opt_preset", None)
    overrides = {}
    for attr, field in OPT_CLI_FIELDS.items():
        value = getattr(opts, attr, None)
        # store_true flags parse to False when absent; treat False the
        # same as "not given" so they never un-set a preset's field.
        if value is not None and value is not False:
            overrides[field] = value
    if preset is None and not overrides:
        return None
    base = resolve_opt(preset) if preset is not None \
        else OptConfig.legacy()
    return base.replace(**overrides) if overrides else base


def config_digest(config: RunConfig) -> str:
    """A short stable digest of a config (used in labels/filenames)."""
    import hashlib
    text = json.dumps(config.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


__all__ = ["RunConfig", "OptConfig", "config_digest", "opt_from_cli_args",
           "PARAMS_PRESETS", "OPT_CLI_FIELDS", "DEFAULT_MAX_STMTS"]
