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

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.connection import ConnectionInfo, analyze_connection
from repro.analysis.locality import (
    LocalityResult,
    analyze_locality,
    mark_private_sites,
)
from repro.comm.forwarding import ForwardingStats, forward_remote_values
from repro.comm.optconfig import OptConfig
from repro.comm.placement import READ, WRITE, PlacementAnalysis
from repro.comm.selection import CommSelection, SelectionStats
from repro.obs.profile import PassProfile, timed_pass
from repro.simple import nodes as s
from repro.simple.validate import ValidationStats, validate_program


@dataclass(frozen=True)
class CommConfig:
    """Knobs for the optimization pipeline: which of the passes that
    move communication run (locality analysis and residual split-phase
    marking always do).

    ``speculative_reads`` mirrors the paper's runtime option of issuing
    remote reads to potentially-invalid addresses (footnote 2); when
    False, selection falls back to the nilness analysis (run only
    then).

    ``opt`` names the heuristic preset
    (:class:`~repro.comm.optconfig.OptConfig`); None means the legacy
    one.  The pass on/off switches stay here -- they change *what the
    optimizer does*, while the preset only changes *how it weighs
    choices*.
    """

    enable_forwarding: bool = True
    enable_placement: bool = True
    enable_blocking: bool = True
    speculative_reads: bool = True
    opt: Optional[OptConfig] = None


class OptimizationReport:
    """Results of one optimizer run, for tests/examples/benchmarks."""

    def __init__(self):
        self.locality: Optional[LocalityResult] = None
        self.forwarding: Dict[str, ForwardingStats] = {}
        self.selections: Dict[str, SelectionStats] = {}
        #: One :class:`~repro.obs.profile.PassProfile` per optimizer
        #: pass, in execution order (timing + work counters).
        self.passes: List[PassProfile] = []
        #: What the closing validation walk counted over the optimized
        #: program.
        self.validation: Optional[ValidationStats] = None

    def total_forwarded(self) -> int:
        return sum(stat.total for stat in self.forwarding.values())

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
                f"functions={sorted(self.selections)})")


class CommunicationOptimizer:
    """Applies the paper's communication optimization to a program."""

    def __init__(self, program: s.SimpleProgram,
                 config: Optional[CommConfig] = None):
        self.program = program
        self.config = config or CommConfig()
        self.opt = self.config.opt if self.config.opt is not None \
            else OptConfig()
        self._conn: Optional[ConnectionInfo] = None

    def _facts(self) -> ConnectionInfo:
        """The alias facts of the program as it now stands: solved on
        first use and again after any phase that :meth:`_rewrote`."""
        if self._conn is None:
            self._conn = analyze_connection(self.program)
        return self._conn

    def _rewrote(self, count: int) -> None:
        """``count`` statements were inserted, replaced or re-targeted;
        unless that is none, the facts are stale."""
        if count:
            self._conn = None

    def run(self) -> OptimizationReport:
        """Run the enabled passes in order, in place.

        Forwarding and the two selection phases rewrite and insert
        statements, and the kill rules must read the alias facts of the
        statements as they now are.  So each of them, and the
        private-line marking that follows selection, asks
        :meth:`_facts`, which re-solves (one points-to solve, one
        effects table) iff a phase reported a rewrite since the last
        solve: the facts are a function of the statements alone.  Not
        ROADMAP 3(a)'s reuse *across* rewrites -- no consumer ever
        reads facts older than a statement."""
        report = OptimizationReport()
        config = self.config

        with timed_pass(report.passes, "locality") as profile:
            report.locality = analyze_locality(self.program)
        profile.counters["local_pointers"] = \
            len(report.locality.local_vars)
        profile.counters["demoted_accesses"] = \
            report.locality.demoted_accesses

        if config.enable_forwarding:
            with timed_pass(report.passes, "forwarding") as profile:
                conn = self._facts()
                for function in self.program.functions.values():
                    report.forwarding[function.name] = \
                        forward_remote_values(function, conn)
            self._rewrote(report.total_forwarded())
            profile.counters["reads_forwarded"] = sum(
                stat.reads_forwarded
                for stat in report.forwarding.values())
            profile.counters["stores_forwarded"] = sum(
                stat.stores_forwarded
                for stat in report.forwarding.values())

        if config.enable_placement:
            # Phase R: earliest placement of reads, all functions; it
            # reads RemoteReads only, so only that direction is placed.
            with timed_pass(report.passes, "place/select reads") \
                    as profile:
                conn = self._facts()
                read_placements = []
                read_selections = {}
                for function in self.program.functions.values():
                    placement = PlacementAnalysis(function, conn).run(READ)
                    read_placements.append(placement)
                    selection = CommSelection(
                        function, placement, conn,
                        speculative_reads=config.speculative_reads,
                        enable_blocking=config.enable_blocking,
                        opt=self.opt)
                    selection.run_reads()
                    read_selections[function.name] = selection
            self._placement_counters(profile, read_placements)
            stats = [sel.stats for sel in read_selections.values()]
            profile.counters["pipelined_reads"] = sum(
                s.pipelined_reads for s in stats)
            profile.counters["blocked_read_groups"] = sum(
                s.blocked_read_groups for s in stats)
            profile.counters["redundant_reads_merged"] = sum(
                s.redundant_reads_merged for s in stats)
            self._rewrote(sum(s.pipelined_reads + s.blocked_read_groups
                              + s.redundant_reads_merged for s in stats))
            # Phase W: latest placement of writes (RemoteWrites only),
            # against a fresh analysis of the read-transformed program
            # -- the inserted comm reads must kill write sinking past
            # them (otherwise a hoisted read and a sunk write of the
            # same location could cross).
            with timed_pass(report.passes, "place/select writes") \
                    as profile:
                conn = self._facts()
                write_placements = []
                for function in self.program.functions.values():
                    placement = PlacementAnalysis(function, conn).run(WRITE)
                    write_placements.append(placement)
                    prior = read_selections[function.name]
                    selection = CommSelection(
                        function, placement, conn,
                        speculative_reads=config.speculative_reads,
                        enable_blocking=config.enable_blocking,
                        stats=prior.stats,
                        block_regions=prior.block_regions,
                        opt=self.opt)
                    selection.run_writes()
                    report.selections[function.name] = selection.stats
            self._placement_counters(profile, write_placements)
            stats = list(report.selections.values())
            profile.counters["pipelined_writes"] = sum(
                s.pipelined_writes for s in stats)
            profile.counters["blocked_write_groups"] = sum(
                s.blocked_write_groups for s in stats)
            profile.counters["blkmov_merges"] = sum(
                s.blocked_read_groups + s.blocked_write_groups
                for s in stats)
            self._rewrote(sum(s.pipelined_writes + s.blocked_write_groups
                              for s in stats))

        with timed_pass(report.passes, "split-phase") as profile:
            marked = 0
            for function in self.program.functions.values():
                marked += _mark_residual_split_phase(function)
        profile.counters["residuals_marked"] = marked

        if self.opt.probabilistic:
            # The probabilistic preset also marks private lines.  Last:
            # the points-to facts must cover the comm statements
            # selection inserted.
            with timed_pass(report.passes, "private lines") as profile:
                private = mark_private_sites(self.program,
                                             self._facts().pts)
            profile.counters["private_sites"] = private

        with timed_pass(report.passes, "validate"):
            report.validation = validate_program(self.program)
        return report

    @staticmethod
    def _placement_counters(profile: PassProfile, placements) -> None:
        profile.counters["tuples_generated"] = sum(
            p.tuples_generated for p in placements)
        profile.counters["tuples_killed"] = sum(
            p.tuples_killed for p in placements)


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
