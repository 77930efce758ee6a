"""Communication selection (Section 4.2 of the paper).

Consumes the possible-placement annotations and transforms the function:

* **reads** -- a top-down traversal visits each insertion point (just
  before each statement of each sequence).  Tuples whose ``(p, f, d)``
  entries are not yet in the hash table, whose frequency is >= 1, and
  whose base pointer may be safely dereferenced there, are selected:
  grouped by base pointer, each group is either *pipelined* (one
  ``comm<k> = p->f`` split-phase read per field, issued back-to-back) or
  *blocked* (one ``blkmov`` into a local ``bcomm<k>`` struct, accesses
  redirected to its fields) following the threshold-of-three rule
  (:meth:`OptConfig.should_block`).  Each origin statement in the
  tuple's Dlist is rewritten to use the communication variable -- which
  also erases redundant reads (a merged tuple rewrites several origins
  to one comm variable).

* **writes** -- a bottom-up traversal selects the *latest* point.  A
  pipelined write captures the stored value in a fresh comm variable at
  the origin and issues the split-phase store at the late point.  A
  blocked write requires an enclosing *localization region*: a blkmov-in
  created by read selection for the same pointer, in the same sequence,
  with no interfering accesses in between (this plays the role of the
  paper's RemoteFill tuples -- every word of the struct is known to be
  filled in ``bcomm`` before the block-write).  Then write origins are
  redirected into ``bcomm`` and one ``blkmov`` writes the struct back.

The safety of each movement was established by the placement analysis;
selection only re-checks dereference validity (nilness or the
speculative-issue option, paper footnote 2) and region interference for
blocked writes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.connection import ConnectionInfo
from repro.analysis.nilness import NilnessResult, analyze_nilness
from repro.analysis.points_to import STAR
from repro.comm.optconfig import STRONG_FREQ, OptConfig
from repro.comm.placement import PlacementResult
from repro.comm.tuples import CommSet, CommTuple, Rewrite, SelectedOp
from repro.errors import TransformError
from repro.frontend.types import StructType, Type
from repro.simple import nodes as s
from repro.simple.traversal import basic_defs, insert_after, insert_before


class BlockRegion:
    """A struct localization region created by a blocked read: the
    whole struct, copied into ``bcomm``."""

    __slots__ = ("seq", "blkmov", "bcomm", "base", "struct",
                 "redirected_labels")

    def __init__(self, seq: s.SeqStmt, blkmov: s.BlkmovStmt, bcomm: str,
                 base: str, struct: StructType):
        self.seq = seq
        self.blkmov = blkmov
        self.bcomm = bcomm
        self.base = base
        self.struct = struct
        self.redirected_labels: Set[int] = set()


class CommSelection:
    """Runs communication selection on one function (in place),
    appending one record to ``log`` per rewrite."""

    def __init__(self, func: s.SimpleFunction, placement: PlacementResult,
                 conn: ConnectionInfo, log: List[Rewrite],
                 speculative_reads: bool = True,
                 enable_blocking: bool = True,
                 block_regions: Optional[List[BlockRegion]] = None,
                 opt: Optional[OptConfig] = None):
        self.func = func
        self.placement = placement
        self.conn = conn
        self.log = log
        #: Built by the first non-speculative dereference check.
        self.nilness: Optional[NilnessResult] = None
        self.speculative_reads = speculative_reads
        self.enable_blocking = enable_blocking
        self.opt = opt if opt is not None else OptConfig()
        self.selected_reads: Set[SelectedOp] = set()
        self.selected_writes: Set[SelectedOp] = set()
        self.block_regions: List[BlockRegion] = \
            block_regions if block_regions is not None else []
        #: Label -> statement of the tree a phase runs on, built by it.
        self.label_map: Dict[int, s.Stmt] = {}

    # -- entry points -----------------------------------------------------------

    def run_reads(self) -> None:
        """Phase R: earliest placement of reads (top-down)."""
        self.label_map = self.func.label_map()
        self._select_reads_in(self.func.body)

    def run_writes(self) -> None:
        """Phase W: latest placement of writes (bottom-up).  Run against
        annotations computed on the current tree."""
        self.label_map = self.func.label_map()
        self._select_writes_in(self.func.body)

    def _record(self, rule: str, base: str, consumed: Iterable[int],
                emitted: Optional[s.Stmt] = None) -> None:
        self.log.append(Rewrite(
            self.func.name, rule, base, tuple(sorted(consumed)),
            () if emitted is None else (emitted.label,)))

    # ======================================================================
    # Reads: top-down, earliest placement
    # ======================================================================

    def _select_reads_in(self, stmt: s.Stmt) -> None:
        if isinstance(stmt, s.SeqStmt):
            for child in list(stmt.stmts):
                self._read_point(stmt, child)
                self._select_reads_in(child)
        else:
            for child in stmt.children():
                self._select_reads_in(child)

    def _read_point(self, seq: s.SeqStmt, stmt: s.Stmt) -> None:
        """Handle the insertion point just before ``stmt``."""
        annotations = self.placement.reads_before.get(stmt.label)
        if annotations is None or not len(annotations):
            return
        groups = self._fresh_candidates(annotations, self.selected_reads,
                                        stmt.label)
        if not groups:
            return
        new_stmts: List[s.Stmt] = []
        for base, tuples in groups.items():
            new_stmts.extend(self._select_read_group(seq, stmt, base,
                                                     tuples))
        if new_stmts:
            insert_before(seq, stmt, new_stmts)

    def _fresh_candidates(self, annotations: CommSet,
                          hash_table: Set[SelectedOp],
                          at_label: int) -> Dict[str, List[CommTuple]]:
        """Filter annotations to unselected, safe tuples and group them
        by base pointer (order-preserving).

        Tuples below the frequency threshold are kept in the groups:
        they are never *individually* selected (the paper's "frequency
        is 1 or more" rule), but when a whole-struct block move is
        placed for their base pointer they ride along for free -- this
        is what produces the paper's Fig. 11(b), where the conditional
        switch-arm reads of ``sum_adjacent`` are served from the same
        ``bcomm`` as the unconditional ``color`` read.
        """
        groups: Dict[str, List[CommTuple]] = {}
        for tup in annotations:
            fresh = frozenset(
                d for d in tup.dlist
                if (tup.base, tup.key[1], d) not in hash_table)
            if not fresh:
                continue
            if not self._safe_deref(tup.base, at_label):
                continue
            groups.setdefault(tup.base, []).append(
                CommTuple(tup.base, tup.path, tup.freq, fresh))
        return groups

    def _is_strong(self, tup: CommTuple) -> bool:
        """Frequent enough to be selected on its own (paper: >= 1)."""
        return tup.freq >= STRONG_FREQ

    def _blocks(self, struct: Optional[StructType],
                field_tuples: List[CommTuple]) -> bool:
        """Does one base pointer's group of field accesses move as one
        whole-struct ``blkmov`` (:meth:`OptConfig.should_block`)?"""
        if struct is None or not field_tuples or not self.enable_blocking:
            return False
        words_needed = 0
        expected = 0.0
        for tup in field_tuples:
            _, field_type = tup.path.resolve(struct)  # type: ignore[union-attr]
            words_needed += field_type.size_words()
            # Expected scalar accesses saved: the paper's estimate,
            # frequency capped at one.
            expected += min(tup.freq, 1.0)
        return self.opt.should_block(
            len(field_tuples), expected, words_needed, struct.size_words(),
            certain=any(self._is_strong(t) for t in field_tuples))

    def _safe_deref(self, base: str, label: int) -> bool:
        if self.speculative_reads:
            return True
        if self.nilness is None:
            self.nilness = analyze_nilness(self.func)
        return self.nilness.is_nonnil_before(label, base)

    def _pointee(self, base: str) -> Optional[Type]:
        """What the pointer ``base`` targets: a variable of this function
        or, failing that, a global of the program."""
        var = self.func.variables.get(base) or \
            self.conn.program.globals.get(base)
        if var is None or not var.type.is_pointer:
            return None
        return var.type.target  # type: ignore[attr-defined]

    def _pointee_struct(self, base: str) -> Optional[StructType]:
        pointee = self._pointee(base)
        return pointee if isinstance(pointee, StructType) else None

    def _select_read_group(self, seq: s.SeqStmt, stmt: s.Stmt, base: str,
                           tuples: List[CommTuple]) -> List[s.Stmt]:
        """Choose pipelining or blocking for one base pointer's tuples
        and perform the rewrites; returns statements to insert."""
        struct = self._pointee_struct(base)
        field_tuples = [t for t in tuples if t.path is not None]
        deref_tuples = [t for t in tuples
                        if t.path is None and self._is_strong(t)]

        new_stmts: List[s.Stmt] = []
        if self._blocks(struct, field_tuples):
            bcomm = self.func.fresh_bcomm(struct)
            blkmov = s.BlkmovStmt(("ptr", base, 0), ("local", bcomm, 0),
                                  struct.size_words(), split_phase=True)
            new_stmts.append(blkmov)
            region = BlockRegion(seq, blkmov, bcomm, base, struct)
            self.block_regions.append(region)
            for tup in field_tuples:
                for d in tup.dlist:
                    self.selected_reads.add((base, tup.key[1], d))
                    self._rewrite_read(d, bcomm=bcomm)
                    region.redirected_labels.add(d)
            self._record("block-read", base, region.redirected_labels,
                         blkmov)
        else:
            for tup in field_tuples:
                if self._is_strong(tup):
                    new_stmts.extend(self._pipeline_read(stmt, base, tup))
        for tup in deref_tuples:
            new_stmts.extend(self._pipeline_read(stmt, base, tup))
        return new_stmts

    def _pipeline_read(self, stmt: s.Stmt, base: str,
                       tup: CommTuple) -> List[s.Stmt]:
        """One split-phase scalar read hoisted to this point."""
        origins = sorted(tup.dlist)
        if origins == [stmt.label]:
            origin = self.label_map[stmt.label]
            assert isinstance(origin, s.AssignStmt)
            # The tuple never moved and has a single origin: leave the
            # read in place, just make it split-phase -- unless it reads
            # into a global, which gets a comm variable like a moved one.
            if self.func.can_split_read(origin):
                origin.split_phase = True
                self.selected_reads.add((base, tup.key[1], stmt.label))
                self._record("in-place-read", base, origins)
                return []
        if tup.path is not None:
            struct = self._pointee_struct(base)
            if struct is not None:
                _, field_type = tup.path.resolve(struct)
            else:
                raise TransformError(
                    f"{self.func.name}: field read through non-struct "
                    f"pointer {base!r}")
            comm = self.func.fresh_comm(field_type)
            read_stmt = s.AssignStmt(
                s.VarLV(comm),
                s.FieldReadRhs(base, tup.path, True),
                split_phase=True)
        else:
            comm = self.func.fresh_comm(self._pointee(base))
            read_stmt = s.AssignStmt(
                s.VarLV(comm), s.DerefReadRhs(base, True),
                split_phase=True)
        for d in origins:
            self.selected_reads.add((base, tup.key[1], d))
            self._rewrite_read(d, comm=comm)
        self._record("pipeline-read", base, origins, read_stmt)
        return [read_stmt]

    def _rewrite_read(self, label: int, comm: Optional[str] = None,
                      bcomm: Optional[str] = None) -> None:
        origin = self.label_map.get(label)
        if not isinstance(origin, s.AssignStmt):
            raise TransformError(
                f"{self.func.name}: S{label} is not an assignment "
                f"(stale Dlist?)")
        rhs = origin.rhs
        if comm is not None:
            origin.rhs = s.OperandRhs(s.VarUse(comm))
            return
        assert bcomm is not None
        if isinstance(rhs, s.FieldReadRhs):
            origin.rhs = s.StructFieldReadRhs(bcomm, rhs.path)
        else:
            raise TransformError(
                f"{self.func.name}: S{label} cannot be redirected to a "
                f"bcomm buffer: {rhs!r}")

    # ======================================================================
    # Writes: bottom-up, latest placement
    # ======================================================================

    def _select_writes_in(self, stmt: s.Stmt) -> None:
        if isinstance(stmt, s.SeqStmt):
            for child in list(reversed(stmt.stmts)):
                self._write_point(stmt, child)
                self._select_writes_in(child)
        else:
            for child in reversed(list(stmt.children())):
                self._select_writes_in(child)

    def _write_point(self, seq: s.SeqStmt, stmt: s.Stmt) -> None:
        """Handle the insertion point just after ``stmt``."""
        annotations = self.placement.writes_after.get(stmt.label)
        if annotations is None or not len(annotations):
            return
        groups = self._fresh_candidates(annotations, self.selected_writes,
                                        stmt.label)
        if not groups:
            return
        new_stmts: List[s.Stmt] = []
        for base, tuples in groups.items():
            new_stmts.extend(
                self._select_write_group(seq, stmt, base, tuples))
        if new_stmts:
            insert_after(seq, stmt, new_stmts)

    def _select_write_group(self, seq: s.SeqStmt, stmt: s.Stmt, base: str,
                            tuples: List[CommTuple]) -> List[s.Stmt]:
        struct = self._pointee_struct(base)
        field_tuples = [t for t in tuples if t.path is not None]
        deref_tuples = [t for t in tuples
                        if t.path is None and self._is_strong(t)]

        region: Optional[BlockRegion] = None
        if self._blocks(struct, field_tuples):
            region = self._find_block_region(seq, stmt, base,
                                             field_tuples)

        new_stmts: List[s.Stmt] = []
        if region is not None:
            for tup in field_tuples:
                for d in tup.dlist:
                    self.selected_writes.add((base, tup.key[1], d))
                    self._rewrite_write_to_bcomm(d, region.bcomm)
                    region.redirected_labels.add(d)
            blkmov = s.BlkmovStmt(
                ("local", region.bcomm, 0), ("ptr", base, 0),
                region.struct.size_words(), split_phase=True)
            new_stmts.append(blkmov)
            self._record("block-write", base,
                         [d for tup in field_tuples for d in tup.dlist],
                         blkmov)
        else:
            for tup in field_tuples:
                if self._is_strong(tup):
                    new_stmts.extend(self._pipeline_write(stmt, base, tup))
            for tup in deref_tuples:
                new_stmts.extend(self._pipeline_write(stmt, base, tup))
        return new_stmts

    def _pipeline_write(self, stmt: s.Stmt, base: str,
                        tup: CommTuple) -> List[s.Stmt]:
        origins = sorted(tup.dlist)
        if origins == [stmt.label]:
            origin = self.label_map[stmt.label]
            assert isinstance(origin, s.AssignStmt)
            origin.split_phase = True
            self.selected_writes.add((base, tup.key[1], stmt.label))
            self._record("in-place-write", base, origins)
            return []
        if tup.path is not None:
            struct = self._pointee_struct(base)
            assert struct is not None
            _, field_type = tup.path.resolve(struct)
            lhs: s.LValue = s.FieldWriteLV(base, tup.path, True)
        else:
            field_type = self._pointee(base)
            lhs = s.DerefWriteLV(base, True)
        comm = self.func.fresh_comm(field_type)
        for d in origins:
            self.selected_writes.add((base, tup.key[1], d))
            self._rewrite_write_to_var(d, comm)
        write_stmt = s.AssignStmt(lhs, s.OperandRhs(s.VarUse(comm)),
                                  split_phase=True)
        self._record("pipeline-write", base, origins, write_stmt)
        return [write_stmt]

    def _rewrite_write_to_var(self, label: int, comm: str) -> None:
        origin = self.label_map.get(label)
        if not isinstance(origin, s.AssignStmt):
            raise TransformError(
                f"{self.func.name}: S{label} is not an assignment")
        origin.lhs = s.VarLV(comm)

    def _rewrite_write_to_bcomm(self, label: int, bcomm: str) -> None:
        origin = self.label_map.get(label)
        if not isinstance(origin, s.AssignStmt) or \
                not isinstance(origin.lhs, s.FieldWriteLV):
            raise TransformError(
                f"{self.func.name}: S{label} is not a field write")
        origin.lhs = s.StructFieldWriteLV(bcomm, origin.lhs.path)

    # -- localization region search -------------------------------------------------

    def _find_block_region(self, seq: s.SeqStmt, stmt: s.Stmt, base: str,
                           tuples: List[CommTuple]) -> Optional[BlockRegion]:
        """A blocked read region for ``base`` in this same sequence whose
        blkmov-in precedes the write point and whose span is free of
        interfering accesses (the RemoteFill guarantee)."""
        origin_labels = {d for tup in tuples for d in tup.dlist}
        try:
            point_index = seq.stmts.index(stmt)
        except ValueError:
            return None
        for region in self.block_regions:
            if region.base != base or region.seq is not seq:
                continue
            try:
                blk_index = seq.stmts.index(region.blkmov)
            except ValueError:
                continue  # region's blkmov no longer in this sequence
            if blk_index > point_index:
                continue
            if self._region_span_safe(seq, blk_index, point_index, base,
                                      region, origin_labels):
                return region
        return None

    def _region_span_safe(self, seq: s.SeqStmt, blk_index: int,
                          point_index: int, base: str,
                          region: BlockRegion,
                          origin_labels: Set[int]) -> bool:
        """No statement in the span may redefine the base pointer, write
        the pointed-to object through any alias, or access it directly
        outside the redirected statements."""
        allowed = origin_labels | region.redirected_labels
        for top in seq.stmts[blk_index + 1:point_index + 1]:
            for inner in top.walk():
                if not isinstance(inner, s.BasicStmt):
                    continue
                if base in basic_defs(inner):
                    return False
                if inner.label in allowed:
                    continue
                # Remaining direct accesses via the base pointer defeat
                # localization (they would bypass the bcomm buffer).
                read = inner.remote_read()
                write = inner.remote_write()
                for access in (read, write):
                    if access is not None and access.base == base:
                        return False
                # Any other write that may hit the object is interference
                # with the fields the block write will write back.
                if self.conn.effects.may_write(self.func, base, (STAR,),
                                               inner):
                    return False
        return True
