"""Nilness analysis: which pointers are definitely non-nil where.

Communication selection may only insert a dereference of ``p`` at a
program point if that is safe (paper Section 4.2, footnote 2).  The
paper offers three options: an all-paths-dereference check, a nilness
analysis, and speculative issue (their runtime tolerates remote reads to
invalid addresses).  We implement the nilness analysis here and the
speculative option in the selection pass/simulator; either (or both) can
be enabled via :class:`repro.comm.optimizer.CommConfig`.

This is a forward, structured dataflow analysis computing, for the entry
of every statement, the set of variables *definitely non-nil*:

* ``p = malloc(...)`` makes ``p`` non-nil;
* ``p = q`` transfers ``q``'s status; ``p = <non-zero const>`` sets it;
* a dereference of ``p`` (read or write) makes ``p`` non-nil *afterwards*
  (the program would have faulted otherwise) -- this is what licenses
  hoisting a read of ``t->y`` to just after an existing read of ``t->x``;
* branch guards ``if (p != 0)`` / ``while (p != 0)`` establish facts in
  the guarded region;
* loops and parallel constructs are handled conservatively by removing
  facts about variables their bodies may write.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.simple import nodes as s
from repro.simple.traversal import basic_defs


class NilnessResult:
    """Per-statement-entry non-nil facts."""

    def __init__(self, before: Dict[int, FrozenSet[str]]):
        self._before = before

    def is_nonnil_before(self, label: int, var: str) -> bool:
        return var in self._before.get(label, frozenset())


class NilnessAnalysis:
    def __init__(self, func: s.SimpleFunction):
        self.func = func
        self._before: Dict[int, Set[str]] = {}

    def run(self) -> NilnessResult:
        self._transfer(self.func.body, set())
        return NilnessResult({
            label: frozenset(facts)
            for label, facts in self._before.items()
        })

    # -- helpers ---------------------------------------------------------------

    def _written_vars(self, stmt: s.Stmt) -> Set[str]:
        """Variables a statement may (transitively) write."""
        written: Set[str] = set()
        for child in stmt.walk():
            if isinstance(child, s.BasicStmt):
                written |= basic_defs(child)
        return written

    @staticmethod
    def _guard_facts(cond: s.CondExpr) -> Set[str]:
        """Facts established when ``cond`` is true: ``p != 0``/``p != NULL``
        style comparisons (either operand order)."""
        facts: Set[str] = set()
        if cond.op == "!=" and isinstance(cond.right, s.Const) \
                and cond.right.value == 0 \
                and isinstance(cond.left, s.VarUse):
            facts.add(cond.left.name)
        if cond.op == "!=" and isinstance(cond.left, s.Const) \
                and cond.left.value == 0 \
                and isinstance(cond.right, s.VarUse):
            facts.add(cond.right.name)
        return facts

    @staticmethod
    def _negated_guard_facts(cond: s.CondExpr) -> Set[str]:
        """Facts established when ``cond`` is false: ``p == 0`` guards."""
        facts: Set[str] = set()
        if cond.op == "==" and isinstance(cond.right, s.Const) \
                and cond.right.value == 0 \
                and isinstance(cond.left, s.VarUse):
            facts.add(cond.left.name)
        if cond.op == "==" and isinstance(cond.left, s.Const) \
                and cond.left.value == 0 \
                and isinstance(cond.right, s.VarUse):
            facts.add(cond.right.name)
        return facts

    # -- transfer -----------------------------------------------------------------

    def _transfer(self, stmt: s.Stmt, facts: Set[str]) -> Set[str]:
        """Record entry facts for ``stmt`` and return its exit facts."""
        self._before[stmt.label] = set(facts)
        if isinstance(stmt, s.SeqStmt):
            current = facts
            for child in stmt.stmts:
                current = self._transfer(child, current)
            return current
        if isinstance(stmt, s.BasicStmt):
            return self._transfer_basic(stmt, facts)
        if isinstance(stmt, s.IfStmt):
            then_in = facts | self._guard_facts(stmt.cond)
            else_in = facts | self._negated_guard_facts(stmt.cond)
            then_out = self._transfer(stmt.then_seq, then_in)
            else_out = self._transfer(stmt.else_seq, else_in)
            return then_out & else_out
        if isinstance(stmt, s.SwitchStmt):
            outs = []
            for _value, seq in stmt.cases:
                outs.append(self._transfer(seq, set(facts)))
            if stmt.default is not None:
                outs.append(self._transfer(stmt.default, set(facts)))
            else:
                outs.append(set(facts))
            result = outs[0]
            for out in outs[1:]:
                result &= out
            return result
        if isinstance(stmt, s.WhileStmt):
            written = self._written_vars(stmt.body)
            body_in = (facts - written) | self._guard_facts(stmt.cond)
            self._transfer(stmt.body, body_in)
            return facts - written
        if isinstance(stmt, s.DoStmt):
            # Entry facts for iterations >= 2 are the conservative
            # (facts - written); the resulting body_out then also covers
            # the first iteration's exit, so it is the loop's exit set.
            written = self._written_vars(stmt.body)
            return self._transfer(stmt.body, facts - written)
        if isinstance(stmt, s.ForallStmt):
            written = (self._written_vars(stmt.init)
                       | self._written_vars(stmt.body)
                       | self._written_vars(stmt.step))
            self._transfer(stmt.init, set(facts))
            body_in = (facts - written) | self._guard_facts(stmt.cond)
            self._transfer(stmt.body, body_in)
            self._transfer(stmt.step, facts - written)
            return facts - written
        if isinstance(stmt, s.ParStmt):
            written: Set[str] = set()
            for branch in stmt.branches:
                written |= self._written_vars(branch)
            for branch in stmt.branches:
                self._transfer(branch, facts - written)
            return facts - written
        raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover

    def _transfer_basic(self, stmt: s.BasicStmt,
                        facts: Set[str]) -> Set[str]:
        out = set(facts)
        # A performed dereference proves the base non-nil afterwards.
        read = stmt.remote_read()
        write = stmt.remote_write()
        for access in (read, write):
            if access is not None:
                out.add(access.base)
        if isinstance(stmt, s.AssignStmt):
            rhs = stmt.rhs
            if isinstance(rhs, (s.FieldReadRhs, s.DerefReadRhs,
                                s.IndexReadRhs)):
                out.add(rhs.base)  # local dereferences prove it too
            if isinstance(stmt.lhs, (s.FieldWriteLV, s.DerefWriteLV,
                                     s.IndexWriteLV)):
                out.add(stmt.lhs.base)
            if isinstance(stmt.lhs, s.VarLV):
                target = stmt.lhs.name
                out.discard(target)
                if isinstance(rhs, s.OperandRhs):
                    operand = rhs.operand
                    if isinstance(operand, s.VarUse) \
                            and operand.name in facts:
                        out.add(target)
                    elif isinstance(operand, s.Const) \
                            and operand.value != 0:
                        out.add(target)
                elif isinstance(rhs, s.AddrOfRhs):
                    out.add(target)
                elif isinstance(rhs, s.FieldAddrRhs) \
                        and rhs.base in facts:
                    out.add(target)
        elif isinstance(stmt, s.AllocStmt):
            out.add(stmt.target)
        elif isinstance(stmt, (s.CallStmt, s.SharedOpStmt)):
            target = getattr(stmt, "target", None)
            if target is not None:
                out.discard(target)
        elif isinstance(stmt, s.BlkmovStmt):
            pass  # endpoints proved above via remote access; locals unaffected
        return out


def analyze_nilness(func: s.SimpleFunction) -> NilnessResult:
    """Run nilness analysis on one function."""
    return NilnessAnalysis(func).run()
