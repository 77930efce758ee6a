"""The communication optimization driver (the paper's Phase II).

Runs, in order:

1. **locality analysis** -- demotes accesses through provably-local
   pointers (companion analysis, Zhu & Hendren PACT'97);
2. **redundant remote access elimination** -- value forwarding
   (read-read and store-to-load);
3. **possible-placement analysis** per function, one direction per
   selection phase (RemoteReads for the read phase, RemoteWrites for
   the write phase);
4. **communication selection** per function (pipelining / blocking);
5. marks every remaining remote operation split-phase (the thread
   generator's job in the real compiler) and re-validates the program.

Steps 1 and 5 always run; :class:`CommConfig` switches 2-4.  The
paper's unoptimized ("simple") configuration is this driver with 2-4
off (:func:`repro.harness.pipeline.simple_baseline_config`): locality
analysis, then split-phase marking of every remote operation, none of
them moved, merged or blocked.  ``optimize=False`` -- the
``sequential`` leg's compile -- does not run the driver at all: every
remote access then executes synchronously.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.connection import ConnectionInfo, analyze_connection
from repro.analysis.locality import LocalityResult, analyze_locality
from repro.comm.forwarding import forward_remote_values
from repro.comm.optconfig import OptConfig, resolve_opt
from repro.comm.placement import READ, WRITE, PlacementAnalysis
from repro.comm.selection import CommSelection
from repro.comm.tuples import Rewrite
from repro.errors import UsageError, shown
from repro.obs.profile import PassProfile, timed_pass
from repro.simple import nodes as s
from repro.simple.validate import ValidationStats, validate_program


@dataclass(frozen=True)
class CommConfig:
    """What the optimizer does, the one compile key: which of the
    passes that move communication run (locality analysis and residual
    split-phase marking always do), and under which heuristic preset.

    ``speculative_reads`` mirrors the paper's runtime option of issuing
    remote reads to potentially-invalid addresses (footnote 2); when
    False, selection falls back to the nilness analysis (run only
    then).

    ``opt`` names the heuristic preset in any spelling
    :func:`~repro.comm.optconfig.resolve_opt` reads, normalised so the
    legacy one is None however it is spelled.
    """

    enable_forwarding: bool = True
    enable_placement: bool = True
    enable_blocking: bool = True
    speculative_reads: bool = True
    opt: Optional[OptConfig] = None

    def __post_init__(self):
        # A job spec arrives as JSON, where "no" and 1 are truthy.
        for name in ("enable_forwarding", "enable_placement",
                     "enable_blocking", "speculative_reads"):
            if type(getattr(self, name)) is not bool:
                raise UsageError(f"{name} must be a bool, got "
                                 f"{shown(getattr(self, name))}")
        object.__setattr__(self, "opt", resolve_opt(self.opt))

    def to_json(self) -> Dict[str, object]:
        """Stable JSON form (the service's ``comm`` wire key)."""
        return dict(vars(self), opt=self.opt and self.opt.to_json())

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CommConfig":
        """Inverse of :meth:`to_json` (a missing field keeps its
        default)."""
        if not isinstance(data, dict):
            raise UsageError(f"comm config must be an object, got "
                             f"{type(data).__name__}")
        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise UsageError(
                f"unknown comm config fields: {sorted(unknown)}")
        return cls(**data)


class OptimizationReport:
    """Results of one optimizer run, for tests/examples/benchmarks."""

    def __init__(self):
        self.locality: Optional[LocalityResult] = None
        #: One record per rewrite of forwarding and selection, in the
        #: order they were made.
        self.log: List[Rewrite] = []
        #: One :class:`~repro.obs.profile.PassProfile` per optimizer
        #: pass, in execution order (timing + work counters).
        self.passes: List[PassProfile] = []
        #: What the closing validation walk counted over the optimized
        #: program.
        self.validation: Optional[ValidationStats] = None

    def counters(self, function: Optional[str] = None) -> Dict[str, int]:
        """The rewrite counters, counted over the log (over one
        function's records when ``function`` is given)."""
        log = [r for r in self.log if function in (None, r.function)]
        rules = Counter(r.rule for r in log)
        return {
            "reads_forwarded": rules["forward-load"],
            "stores_forwarded": rules["forward-store"],
            "pipelined_reads": rules["pipeline-read"],
            "blocked_read_groups": rules["block-read"],
            "redundant_reads_merged": sum(
                len(r.consumed) - 1 for r in log
                if r.rule == "pipeline-read"),
            "pipelined_writes": rules["pipeline-write"],
            "blocked_write_groups": rules["block-write"],
            "blkmov_merges": rules["block-read"] + rules["block-write"],
        }

    def total_forwarded(self) -> int:
        counters = self.counters()
        return counters["reads_forwarded"] + counters["stores_forwarded"]

    def pass_counters(self) -> Dict[str, int]:
        """All pass counters flattened into one dict, summed over the
        passes that share a name (both place/select phases count
        ``tuples_generated`` and ``tuples_killed``)."""
        merged: Dict[str, int] = {}
        for profile in self.passes:
            for name, value in profile.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def profile_text(self) -> str:
        """Printable per-pass timing/counter table
        (``--show profile``)."""
        total = sum(p.wall_s for p in self.passes)
        lines = [f"== optimizer passes ({total * 1e3:.2f}ms total)"]
        for profile in self.passes:
            counters = " ".join(f"{key}={value}" for key, value
                                in profile.counters.items())
            lines.append(f"  {profile.name:<18}"
                         f"{profile.wall_s * 1e3:>9.3f}ms  "
                         f"{counters}".rstrip())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_forwarded": self.total_forwarded(),
            "passes": [profile.to_dict() for profile in self.passes],
        }

    def __repr__(self) -> str:
        return (f"OptimizationReport(forwarded={self.total_forwarded()}, "
                f"rewrites={len(self.log)})")


class CommunicationOptimizer:
    """Applies the paper's communication optimization to a program."""

    def __init__(self, program: s.SimpleProgram,
                 config: Optional[CommConfig] = None):
        self.program = program
        self.config = config or CommConfig()
        self.opt = self.config.opt or OptConfig()

    def run(self) -> OptimizationReport:
        """Run the enabled passes in order, in place.

        The kill rules read the alias facts (one points-to solve, one
        effects table) of the statements they judge, and the facts are
        solved at most twice:

        * once, before the first pass that reads them.  Forwarding
          rewrites only by replacing a heap read with a value that was
          already read or stored: it adds no statement and no access,
          so every points-to set it leaves is the one it read, and
          every statement's effects are a subset of those it read.
          The reads phase uses the same facts; where a forwarded
          statement's old effects remain, a kill rule can only judge
          more conservatively;
        * again before the writes phase, iff a reads-phase record
          emitted a statement: the comm reads and blkmovs it inserts
          must kill write sinking past them (otherwise a hoisted read
          and a sunk write of the same location could cross)."""
        report = OptimizationReport()
        config = self.config
        conn: Optional[ConnectionInfo] = None

        with timed_pass(report.passes, "locality") as profile:
            report.locality = analyze_locality(self.program)
        profile.counters["local_pointers"] = \
            len(report.locality.local_vars)
        profile.counters["demoted_accesses"] = \
            report.locality.demoted_accesses

        if config.enable_forwarding:
            with timed_pass(report.passes, "forwarding") as profile:
                conn = analyze_connection(self.program)
                for function in self.program.functions.values():
                    forward_remote_values(function, conn, report.log)
            _log_counters(profile, report, "reads_forwarded",
                          "stores_forwarded")

        if config.enable_placement:
            # Phase R: earliest placement of reads, all functions; it
            # reads RemoteReads only, so only that direction is placed.
            with timed_pass(report.passes, "place/select reads") \
                    as profile:
                if conn is None:
                    conn = analyze_connection(self.program)
                read_placements = []
                block_regions = {}
                for function in self.program.functions.values():
                    placement = PlacementAnalysis(function, conn).run(READ)
                    read_placements.append(placement)
                    selection = CommSelection(
                        function, placement, conn, report.log,
                        speculative_reads=config.speculative_reads,
                        enable_blocking=config.enable_blocking,
                        opt=self.opt)
                    selection.run_reads()
                    block_regions[function.name] = selection.block_regions
            self._placement_counters(profile, read_placements)
            _log_counters(profile, report, "pipelined_reads",
                          "blocked_read_groups", "redundant_reads_merged")
            # Phase W: latest placement of writes (RemoteWrites only),
            # against the facts of the read-transformed program.
            with timed_pass(report.passes, "place/select writes") \
                    as profile:
                # Only read selection has emitted statements so far.
                if any(record.emitted for record in report.log):
                    conn = analyze_connection(self.program)
                write_placements = []
                for function in self.program.functions.values():
                    placement = PlacementAnalysis(function, conn).run(WRITE)
                    write_placements.append(placement)
                    selection = CommSelection(
                        function, placement, conn, report.log,
                        speculative_reads=config.speculative_reads,
                        enable_blocking=config.enable_blocking,
                        block_regions=block_regions[function.name],
                        opt=self.opt)
                    selection.run_writes()
            self._placement_counters(profile, write_placements)
            _log_counters(profile, report, "pipelined_writes",
                          "blocked_write_groups", "blkmov_merges")

        with timed_pass(report.passes, "split-phase") as profile:
            marked = 0
            for function in self.program.functions.values():
                marked += _mark_residual_split_phase(function)
        profile.counters["residuals_marked"] = marked

        with timed_pass(report.passes, "validate"):
            report.validation = validate_program(self.program)
        return report

    @staticmethod
    def _placement_counters(profile: PassProfile, placements) -> None:
        profile.counters["tuples_generated"] = sum(
            p.tuples_generated for p in placements)
        profile.counters["tuples_killed"] = sum(
            p.tuples_killed for p in placements)


def _log_counters(profile: PassProfile, report: OptimizationReport,
                  *names: str) -> None:
    counters = report.counters()
    for name in names:
        profile.counters[name] = counters[name]


def _mark_residual_split_phase(function: s.SimpleFunction) -> int:
    """Make every remaining remote operation split-phase; returns how
    many statements were marked.

    In the real compiler the thread generator (Phase III) builds fibers
    that synchronize on split-phase completions regardless of Phase II;
    the simulator's sync-on-use semantics models that, so unselected
    remote operations (array element accesses, blkmovs from struct
    assignments) also overlap when data dependences allow.

    A read into a global stays blocking
    (:meth:`~repro.simple.nodes.SimpleFunction.can_split_read`).
    """
    marked = 0
    for stmt in function.body.basic_stmts():
        if isinstance(stmt, (s.AssignStmt, s.BlkmovStmt)) and stmt.is_remote:
            if isinstance(stmt, s.AssignStmt) \
                    and not function.can_split_read(stmt):
                continue
            stmt.split_phase = True
            marked += 1
    return marked


def optimize_program(program: s.SimpleProgram,
                     config: Optional[CommConfig] = None
                     ) -> OptimizationReport:
    """Run the full communication optimization (in place)."""
    return CommunicationOptimizer(program, config).run()
