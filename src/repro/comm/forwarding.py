"""Redundant remote access elimination by value forwarding.

The paper's framework replaces "repeated/redundant remote accesses with
one access" (Section 1) -- visible in its health excerpt (Fig. 11c)
where ``(*p).time_left`` is read once, decremented, written back, and
the subsequent re-read of ``(*p).time_left`` reuses the written value.

This pass implements both flavours as a forward, structured available-
value analysis over each function:

* **read-read**: a second read of ``p->f`` with the first value still
  available becomes a register copy;
* **write-read (store-to-load forwarding)**: a read of ``p->f`` after a
  direct write ``p->f = v`` becomes a copy of ``v``.

An availability entry ``(p, f) -> operand`` is invalidated when:

* ``p`` is redefined, or the holder variable of the operand is redefined;
* the location is (possibly) written through an alias, or through ``p``
  itself with a different value than the recorded one;
* a whole-struct operation (blkmov) covering the location occurs.

Compound statements are processed with copies of the incoming map for
their bodies and invalidate the outer map by their aggregate effects, so
facts flow *into* conditionals/loops but never unsoundly out of them.

Run this pass *before* possible-placement analysis: it removes remote
reads entirely, which the placement/selection phases then never have to
schedule.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.connection import ConnectionInfo
from repro.analysis.rw_sets import FieldKey, access_key, keys_overlap
from repro.comm.tuples import Rewrite
from repro.simple import nodes as s
from repro.simple.traversal import basic_defs

AvailKey = Tuple[str, FieldKey]


class _Avail:
    """Available remote values: location key -> (operand, from_store)."""

    def __init__(self, entries=None):
        self.entries: Dict[AvailKey, Tuple[s.Operand, bool]] = \
            dict(entries or {})

    def copy(self) -> "_Avail":
        return _Avail(self.entries)

    def kill_base(self, base: str) -> None:
        for key in [k for k in self.entries if k[0] == base]:
            del self.entries[key]

    def kill_holder(self, var: str) -> None:
        for key in [k for k, (operand, _) in self.entries.items()
                    if isinstance(operand, s.VarUse)
                    and operand.name == var]:
            del self.entries[key]

    def kill_overlapping(self, base: str, field: FieldKey) -> None:
        for existing in [k for k in self.entries if k[0] == base]:
            if keys_overlap(existing[1], field):
                del self.entries[existing]


class ForwardingPass:
    """Applies value forwarding to one function, in place, logging
    each read it replaces."""

    def __init__(self, func: s.SimpleFunction, conn: ConnectionInfo,
                 log: List[Rewrite]):
        self.func = func
        self.conn = conn
        self.log = log

    def run(self) -> None:
        self._process_seq(self.func.body, _Avail())

    # -- sequence walking ---------------------------------------------------------

    def _process_seq(self, seq: s.SeqStmt, avail: _Avail) -> None:
        for stmt in seq.stmts:
            if isinstance(stmt, s.BasicStmt):
                self._transfer_basic(stmt, avail)
            else:
                self._process_compound(stmt, avail)

    def _process_compound(self, stmt: s.Stmt, avail: _Avail) -> None:
        if isinstance(stmt, s.IfStmt):
            self._process_seq(stmt.then_seq, avail.copy())
            self._process_seq(stmt.else_seq, avail.copy())
        elif isinstance(stmt, s.SwitchStmt):
            for _value, seq in stmt.cases:
                self._process_seq(seq, avail.copy())
            if stmt.default is not None:
                self._process_seq(stmt.default, avail.copy())
        elif isinstance(stmt, (s.WhileStmt, s.DoStmt)):
            body_avail = avail.copy()
            self._invalidate_by_effects(body_avail, stmt)
            self._process_seq(stmt.body, body_avail)
        elif isinstance(stmt, s.ForallStmt):
            inner = avail.copy()
            self._invalidate_by_effects(inner, stmt)
            self._process_seq(stmt.init, inner.copy())
            self._process_seq(stmt.body, inner.copy())
            self._process_seq(stmt.step, inner.copy())
        elif isinstance(stmt, s.ParStmt):
            inner = avail.copy()
            self._invalidate_by_effects(inner, stmt)
            for branch in stmt.branches:
                self._process_seq(branch, inner.copy())
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {stmt!r}")
        # Whatever the compound statement may have changed is gone from
        # the outer map too.
        self._invalidate_by_effects(avail, stmt)

    # -- invalidation --------------------------------------------------------------

    def _invalidate_by_effects(self, avail: _Avail, stmt: s.Stmt) -> None:
        facts = self.conn.effects
        for var in facts.effects(self.func, stmt).var_writes:
            avail.kill_base(var)
            avail.kill_holder(var)
        # Any possibly-overlapping write (direct or aliased within a
        # compound statement) invalidates; precision inside straight-
        # line code comes from _transfer_basic instead.
        for key in list(avail.entries):
            if facts.may_write(self.func, key[0], key[1], stmt):
                del avail.entries[key]

    # -- basic statement transfer -----------------------------------------------------

    def _transfer_basic(self, stmt: s.BasicStmt, avail: _Avail) -> None:
        if isinstance(stmt, s.AssignStmt):
            self._transfer_assign(stmt, avail)
            return
        if isinstance(stmt, s.CallStmt):
            self._invalidate_by_effects(avail, stmt)
            if stmt.target is not None:
                avail.kill_base(stmt.target)
                avail.kill_holder(stmt.target)
            return
        if isinstance(stmt, s.BlkmovStmt):
            for var in basic_defs(stmt):
                avail.kill_base(var)
                avail.kill_holder(var)
            if stmt.dst[0] == "ptr":
                self._invalidate_by_effects(avail, stmt)
            return
        # Alloc, shared ops, print, return: variable defs only.
        for var in basic_defs(stmt):
            avail.kill_base(var)
            avail.kill_holder(var)

    def _transfer_assign(self, stmt: s.AssignStmt, avail: _Avail) -> None:
        rhs = stmt.rhs
        lhs = stmt.lhs

        # 1. Try to forward a remote read.
        if isinstance(rhs, (s.FieldReadRhs, s.DerefReadRhs)) and rhs.remote:
            entry = avail.entries.get((rhs.base, access_key(rhs)))
            if entry is not None:
                operand, from_store = entry
                stmt.rhs = s.OperandRhs(operand)
                self.log.append(Rewrite(
                    self.func.name,
                    "forward-store" if from_store else "forward-load",
                    rhs.base, (stmt.label,)))
                rhs = stmt.rhs

        # 2. Invalidate by this statement's writes.
        defined = basic_defs(stmt)
        for var in defined:
            avail.kill_base(var)
            avail.kill_holder(var)
        if isinstance(lhs, (s.FieldWriteLV, s.DerefWriteLV,
                            s.IndexWriteLV)):
            # Direct heap write: kill aliased entries (other bases whose
            # objects overlap) and overlapping entries of this base.
            self._kill_aliased_writes(avail, lhs.base, access_key(lhs))
            avail.kill_overlapping(lhs.base, access_key(lhs))

        # 3. Record new availability.
        if isinstance(lhs, s.VarLV) and \
                isinstance(rhs, (s.FieldReadRhs, s.DerefReadRhs)) and \
                rhs.remote:
            if lhs.name != rhs.base:
                avail.entries[(rhs.base, access_key(rhs))] = \
                    (s.VarUse(lhs.name), False)
        elif isinstance(lhs, (s.FieldWriteLV, s.DerefWriteLV)) and \
                isinstance(rhs, s.OperandRhs) and lhs.remote:
            operand = rhs.operand
            if not (isinstance(operand, s.VarUse)
                    and operand.name == lhs.base):
                avail.entries[(lhs.base, access_key(lhs))] = (operand, True)

    def _kill_aliased_writes(self, avail: _Avail, base: str,
                             field: FieldKey) -> None:
        """A direct write through ``base`` may also hit entries recorded
        under other pointers that share objects with ``base``."""
        for existing in list(avail.entries):
            other_base, other_field = existing
            if other_base == base:
                continue
            if not keys_overlap(field, other_field):
                continue
            if self.conn.connected(self.func.name, base,
                                   self.func.name, other_base):
                del avail.entries[existing]


def forward_remote_values(func: s.SimpleFunction, conn: ConnectionInfo,
                          log: List[Rewrite]) -> None:
    """Run the forwarding pass on one function (in place)."""
    ForwardingPass(func, conn, log).run()
