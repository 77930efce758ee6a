"""Possible-placement analysis (Section 4.1, Figures 5 and 6 of the paper).

Computes, for every statement ``S`` of a function:

* ``RemoteReads(S)`` -- the remote read tuples that may safely be placed
  *just before* ``S`` (backward propagation: reads move earlier);
* ``RemoteWrites(S)`` -- the remote write tuples that may safely be
  placed *just after* ``S`` (forward propagation: writes move later).

Each analysis is one traversal of the structured SIMPLE tree -- no
iteration, exactly as in the paper -- and the two are independent, so
a caller runs only the direction it reads: the optimizer's read phase
runs RemoteReads alone and its write phase RemoteWrites alone
(:meth:`PlacementAnalysis.run`); :func:`analyze_placement` runs both,
for ``--show tuples``.

Kill rules (``varWritten`` / ``accessedViaAlias``) come from
:class:`~repro.analysis.connection.ConnectionInfo`.  We additionally
kill a READ tuple at a *direct* write of the same field through the same
pointer (and symmetrically for WRITE tuples at direct reads): the paper
leaves those alive, relying on full struct localization to keep the
values coherent; we run the store-to-load forwarding pass
(:mod:`repro.comm.forwarding`) first, which captures the paper's
redundancy wins, and keep the placement analysis unconditionally sound.

Frequency adjustments follow the paper's ``adjustFrequency``: x10 out of
loops, /2 out of ``if``, /#arms out of ``switch``.  The x10 and /2
weights are the constants :data:`~repro.comm.optconfig.LOOP_WEIGHT` and
:data:`~repro.comm.optconfig.BRANCH_WEIGHT`, the same under both
presets, so placement takes no :class:`~repro.comm.optconfig.OptConfig`.
Kill decisions never depend on frequencies -- they are soundness
conditions, not profitability ones.

Parallel constructs (absent from the paper's figures) are handled
conservatively: tuples generated inside ``{^...^}`` branches escape only
if no sibling branch conflicts (the EARTH memory model forbids such
conflicts anyway); ``forall`` bodies export read tuples like loop bodies
and never export write tuples (a forall may run zero iterations).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.connection import ConnectionInfo
from repro.analysis.points_to import path_key
from repro.analysis.rw_sets import keys_overlap
from repro.comm.optconfig import BRANCH_WEIGHT, LOOP_WEIGHT, OptConfig
from repro.comm.tuples import CommSet, CommTuple
from repro.simple import nodes as s

READ = "read"
WRITE = "write"

class PlacementResult:
    """Annotations produced by one run over one function."""

    def __init__(self, func_name: str):
        self.func_name = func_name
        #: label -> RemoteReads(S): placeable just before S.
        self.reads_before: Dict[int, CommSet] = {}
        #: label -> RemoteWrites(S): placeable just after S.
        self.writes_after: Dict[int, CommSet] = {}
        #: Profiling counters: tuples created at basic statements and
        #: tuples dropped by a kill rule while propagating.
        self.tuples_generated = 0
        self.tuples_killed = 0

    def remote_reads(self, label: int) -> CommSet:
        return self.reads_before.get(label, CommSet())

    def remote_writes(self, label: int) -> CommSet:
        return self.writes_after.get(label, CommSet())


class PlacementAnalysis:
    """Runs possible-placement analysis on one function."""

    def __init__(self, func: s.SimpleFunction, conn: ConnectionInfo):
        self.func = func
        self.conn = conn
        self.result = PlacementResult(func.name)
        self._returns_cache: Dict[int, bool] = {}

    def run(self, *directions: str) -> PlacementResult:
        """One traversal per direction named: :data:`READ` fills
        ``reads_before``, :data:`WRITE` fills ``writes_after``."""
        for access in directions:
            self._collect(self.func.body, access)
        return self.result

    # -- driving rule (collectCommSet) ------------------------------------------

    def _collect(self, stmt: s.Stmt, access: str) -> CommSet:
        if isinstance(stmt, s.BasicStmt):
            return self._collect_basic(stmt, access)
        if isinstance(stmt, s.SeqStmt):
            if access == READ:
                return self._collect_reads_seq(stmt)
            return self._collect_writes_seq(stmt)
        if isinstance(stmt, (s.WhileStmt, s.DoStmt)):
            return self._collect_loop(stmt, access)
        if isinstance(stmt, s.IfStmt):
            return self._collect_if(stmt, access)
        if isinstance(stmt, s.SwitchStmt):
            return self._collect_switch(stmt, access)
        if isinstance(stmt, s.ForallStmt):
            return self._collect_forall(stmt, access)
        if isinstance(stmt, s.ParStmt):
            return self._collect_par(stmt, access)
        raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover

    # -- basic statements (collectCommSetBasic) --------------------------------------

    def _collect_basic(self, stmt: s.BasicStmt, access: str) -> CommSet:
        result = CommSet()
        if access == READ:
            tup = self._basic_read_tuple(stmt)
        else:
            tup = self._basic_write_tuple(stmt)
        if tup is not None:
            self.result.tuples_generated += 1
            result.add(tup)
        return result

    @staticmethod
    def _basic_read_tuple(stmt: s.BasicStmt) -> Optional[CommTuple]:
        """Only scalar field/deref reads generate movable tuples: array
        element reads have an index that changes the target location, and
        blkmovs are left in place (their kill effects still apply)."""
        if isinstance(stmt, s.AssignStmt):
            rhs = stmt.rhs
            if isinstance(rhs, s.FieldReadRhs) and rhs.remote:
                return CommTuple.single(rhs.base, rhs.path, stmt.label)
            if isinstance(rhs, s.DerefReadRhs) and rhs.remote:
                return CommTuple.single(rhs.base, None, stmt.label)
        return None

    @staticmethod
    def _basic_write_tuple(stmt: s.BasicStmt) -> Optional[CommTuple]:
        if isinstance(stmt, s.AssignStmt):
            lhs = stmt.lhs
            if isinstance(lhs, s.FieldWriteLV) and lhs.remote:
                return CommTuple.single(lhs.base, lhs.path, stmt.label)
            if isinstance(lhs, s.DerefWriteLV) and lhs.remote:
                return CommTuple.single(lhs.base, None, stmt.label)
        return None

    # -- kill predicates ----------------------------------------------------------

    def _read_killed_by(self, tup: CommTuple, stmt: s.Stmt) -> bool:
        """May ``stmt`` invalidate moving this READ tuple above it?"""
        if self.conn.var_written(self.func, tup.base, stmt):
            return True
        if self.conn.accessed_via_alias(self.func, tup.base, tup.path,
                                        stmt, "write"):
            return True
        # Sound extra rule: a direct write of the same field through the
        # same pointer (see module docstring).
        if self.conn.accessed_directly(self.func, tup.base, tup.path,
                                       stmt, "write"):
            return True
        return False

    def _contains_return(self, stmt: s.Stmt) -> bool:
        """Does the subtree contain a return -- i.e. may control leave
        the function inside this statement?  A delayed write moved past
        it would be lost on the early-return path."""
        cached = self._returns_cache.get(stmt.label)
        if cached is None:
            cached = any(isinstance(child, s.ReturnStmt)
                         for child in stmt.walk())
            self._returns_cache[stmt.label] = cached
        return cached

    def _write_killed_by(self, tup: CommTuple, stmt: s.Stmt) -> bool:
        """May ``stmt`` invalidate moving this WRITE tuple below it?"""
        if self._contains_return(stmt):
            return True  # a delayed write must be issued before returning
        if self.conn.var_written(self.func, tup.base, stmt):
            return True
        if self.conn.accessed_via_alias(self.func, tup.base, tup.path,
                                        stmt, "read"):
            return True
        if self.conn.accessed_via_alias(self.func, tup.base, tup.path,
                                        stmt, "write"):
            return True
        # Sound extra rules: direct same-field reads would observe the
        # stale value; direct same-field writes would be clobbered.
        if self.conn.accessed_directly(self.func, tup.base, tup.path,
                                       stmt, "read"):
            return True
        if self.conn.accessed_directly(self.func, tup.base, tup.path,
                                       stmt, "write"):
            return True
        return False

    # -- sequences (collectCommReadsSeq / collectCommWritesSeq) --------------------------

    def _collect_reads_seq(self, seq: s.SeqStmt) -> CommSet:
        if not seq.stmts:
            return CommSet()
        stmts = seq.stmts
        current = self._collect(stmts[-1], READ)
        self.result.reads_before[stmts[-1].label] = current.copy()
        for i in range(len(stmts) - 1, 0, -1):
            pred = stmts[i - 1]
            pred_set = self._collect(pred, READ)
            for tup in current:
                if self._read_killed_by(tup, pred):
                    self.result.tuples_killed += 1
                    continue
                pred_set.add(tup)
            current = pred_set
            self.result.reads_before[pred.label] = current.copy()
        return current

    def _collect_writes_seq(self, seq: s.SeqStmt) -> CommSet:
        if not seq.stmts:
            return CommSet()
        stmts = seq.stmts
        current = self._collect(stmts[0], WRITE)
        self.result.writes_after[stmts[0].label] = current.copy()
        for i in range(len(stmts) - 1):
            succ = stmts[i + 1]
            succ_set = self._collect(succ, WRITE)
            for tup in current:
                if self._write_killed_by(tup, succ):
                    self.result.tuples_killed += 1
                    continue
                succ_set.add(tup)
            current = succ_set
            self.result.writes_after[succ.label] = current.copy()
        return current

    # -- conditionals (collectCommSetIf) -----------------------------------------------

    def _collect_if(self, stmt: s.IfStmt, access: str) -> CommSet:
        then_set = self._collect(stmt.then_seq, access)
        else_set = self._collect(stmt.else_seq, access)
        result = CommSet()
        if access == READ:
            # Optimistic: reads from either arm may be hoisted (spurious
            # reads are safe), at per-arm frequency.
            for tup in then_set:
                result.add(tup.scaled(BRANCH_WEIGHT))
            for tup in else_set:
                result.add(tup.scaled(BRANCH_WEIGHT))
            return result
        # Writes: only locations written in *all* alternatives may sink
        # below the conditional.
        for tup in then_set:
            other = else_set.get(tup.key)
            if other is None:
                continue
            result.add(tup.scaled(BRANCH_WEIGHT))
            result.add(other.scaled(BRANCH_WEIGHT))
        return result

    def _collect_switch(self, stmt: s.SwitchStmt, access: str) -> CommSet:
        arm_sets = [self._collect(seq, access) for _, seq in stmt.cases]
        if stmt.default is not None:
            arm_sets.append(self._collect(stmt.default, access))
        alternatives = max(len(arm_sets), 1)
        result = CommSet()
        if access == READ:
            factor = 1.0 / alternatives
            for arm_set in arm_sets:
                for tup in arm_set:
                    result.add(tup.scaled(factor))
            return result
        # Writes sink only when every alternative (including the implicit
        # fall-through when there is no default) performs them.
        if stmt.default is None or not arm_sets:
            return result
        common = set(arm_sets[0].keys())
        for arm_set in arm_sets[1:]:
            common &= set(arm_set.keys())
        factor = 1.0 / alternatives
        for key in common:
            for arm_set in arm_sets:
                tup = arm_set.get(key)
                assert tup is not None
                result.add(tup.scaled(factor))
        return result

    # -- loops (collectCommSetLoop) ----------------------------------------------------

    def _collect_loop(self, stmt, access: str) -> CommSet:
        body_set = self._collect(stmt.body, access)
        result = CommSet()
        if access == READ:
            for tup in body_set:
                if self._read_killed_by(tup, stmt):
                    self.result.tuples_killed += 1
                    continue
                result.add(tup.scaled(LOOP_WEIGHT))
            return result
        if not self._executes_once(stmt):
            return result
        for tup in body_set:
            if self._write_killed_by_loop(tup, stmt):
                self.result.tuples_killed += 1
                continue
            result.add(tup.scaled(LOOP_WEIGHT))
        return result

    def _write_killed_by_loop(self, tup: CommTuple, loop: s.Stmt) -> bool:
        """Like :meth:`_write_killed_by` but applied to the loop as a
        whole: the tuple's *own origin statements* are part of the loop
        body, so the direct-write check must exclude them (otherwise no
        write could ever sink out of a loop).  Any *other* direct write
        of an overlapping field still kills."""
        if self._contains_return(loop):
            return True
        if self.conn.var_written(self.func, tup.base, loop):
            return True
        if self.conn.accessed_via_alias(self.func, tup.base, tup.path,
                                        loop, "read"):
            return True
        if self.conn.accessed_via_alias(self.func, tup.base, tup.path,
                                        loop, "write"):
            return True
        if self.conn.accessed_directly(self.func, tup.base, tup.path,
                                       loop, "read"):
            return True
        for inner in loop.walk():
            if not isinstance(inner, s.BasicStmt) \
                    or inner.label in tup.dlist:
                continue
            write = inner.remote_write()
            if write is not None and write.base == tup.base:
                if keys_overlap(path_key(write.path), path_key(tup.path)):
                    return True
        return False

    @staticmethod
    def _executes_once(stmt: s.Stmt) -> bool:
        """The paper's ``executesOnce``: is the loop body guaranteed to
        run at least once (so a sunk write is never spurious)?"""
        return isinstance(stmt, s.DoStmt)

    # -- parallel constructs --------------------------------------------------------

    def _collect_forall(self, stmt: s.ForallStmt, access: str) -> CommSet:
        init_set = self._collect(stmt.init, access)
        body_set = self._collect(stmt.body, access)
        self._collect(stmt.step, access)
        result = CommSet()
        if access == READ:
            # Body reads escape like loop reads; init reads escape
            # unscaled (init runs exactly once, before the iterations).
            for tup in body_set:
                if self._read_killed_by(tup, stmt):
                    self.result.tuples_killed += 1
                else:
                    result.add(tup.scaled(LOOP_WEIGHT))
            for tup in init_set:
                if self._read_killed_by(tup, stmt):
                    self.result.tuples_killed += 1
                else:
                    result.add(tup)
            return result
        # A forall may execute zero iterations: no writes escape.
        return result

    def _collect_par(self, stmt: s.ParStmt, access: str) -> CommSet:
        branch_sets = [self._collect(branch, access)
                       for branch in stmt.branches]
        result = CommSet()
        killed_by = (self._read_killed_by if access == READ
                     else self._write_killed_by)
        for index, branch_set in enumerate(branch_sets):
            siblings = [b for j, b in enumerate(stmt.branches) if j != index]
            for tup in branch_set:
                # The EARTH memory model forbids sibling interference on
                # ordinary variables, but we check anyway so that even
                # contract-violating inputs are transformed safely.
                if any(killed_by(tup, sibling) for sibling in siblings):
                    self.result.tuples_killed += 1
                    continue
                result.add(tup)
        return result


def analyze_placement(func: s.SimpleFunction,
                      conn: ConnectionInfo,
                      opt: Optional[OptConfig] = None) -> PlacementResult:
    """Run possible-placement analysis on one function, both
    directions.  ``opt`` is accepted and changes nothing: no preset
    moves a placement weight (``bench/layers.py`` passes one)."""
    return PlacementAnalysis(func, conn).run(READ, WRITE)
