"""Traversal and rewriting utilities for SIMPLE trees.

The communication transformations insert statements *before* or *after*
existing basic statements and replace statements in place; these helpers
centralize the tree surgery.  Variable-level use/def sets of basic
statements (direct stack accesses only -- no pointee effects) also live
here because every analysis needs them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.errors import TransformError
from repro.simple import nodes as s

# ---------------------------------------------------------------------------
# Use/def sets (variable level)
# ---------------------------------------------------------------------------


def basic_uses(stmt: s.BasicStmt) -> Set[str]:
    """Names of variables whose *values* this basic statement reads.

    Pointer bases of stores count as uses (storing through ``p`` reads
    ``p``); pointees do not (heap effects are the job of
    :mod:`repro.analysis.rw_sets`).
    """
    uses: Set[str] = set()
    if isinstance(stmt, s.AssignStmt):
        for operand in stmt.rhs.operands():
            uses.update(operand.variables())
        if isinstance(stmt.rhs, s.StructFieldReadRhs):
            uses.add(stmt.rhs.struct_var)
        # An `AddrOfRhs` reads nothing (the escape is points-to's
        # business); a `StructFieldWriteLV` is a partial def, see
        # basic_defs.
        for operand in stmt.lhs.operands():
            uses.update(operand.variables())
    elif isinstance(stmt, s.CallStmt):
        for arg in stmt.args:
            uses.update(arg.variables())
        if stmt.placement is not None:
            if stmt.placement[0] == "owner_of":
                uses.add(stmt.placement[1])
            elif stmt.placement[0] == "node":
                uses.update(stmt.placement[1].variables())
    elif isinstance(stmt, s.AllocStmt):
        uses.update(stmt.words.variables())
        if stmt.node is not None:
            uses.update(stmt.node.variables())
    elif isinstance(stmt, s.BlkmovStmt):
        for kind, name, _offset in (stmt.src, stmt.dst):
            if kind == "ptr":
                uses.add(name)
        if stmt.src[0] == "local":
            uses.add(stmt.src[1])
    elif isinstance(stmt, s.SharedOpStmt):
        if stmt.value is not None:
            uses.update(stmt.value.variables())
    elif isinstance(stmt, s.ReturnStmt):
        if stmt.value is not None:
            uses.update(stmt.value.variables())
    elif isinstance(stmt, s.PrintStmt):
        for arg in stmt.args:
            uses.update(arg.variables())
    return uses


def basic_defs(stmt: s.BasicStmt) -> Set[str]:
    """Names of variables this basic statement (possibly partially)
    writes directly."""
    defs: Set[str] = set()
    if isinstance(stmt, s.AssignStmt):
        if isinstance(stmt.lhs, s.VarLV):
            defs.add(stmt.lhs.name)
        elif isinstance(stmt.lhs, s.StructFieldWriteLV):
            defs.add(stmt.lhs.struct_var)
    elif isinstance(stmt, s.CallStmt):
        if stmt.target is not None:
            defs.add(stmt.target)
    elif isinstance(stmt, s.AllocStmt):
        defs.add(stmt.target)
    elif isinstance(stmt, s.BlkmovStmt):
        if stmt.dst[0] == "local":
            defs.add(stmt.dst[1])
    elif isinstance(stmt, s.SharedOpStmt):
        if stmt.target is not None:
            defs.add(stmt.target)
    return defs


def cond_uses(cond: s.CondExpr) -> Set[str]:
    return set(cond.variables())


# ---------------------------------------------------------------------------
# Splicing
# ---------------------------------------------------------------------------


def insert_before(seq: s.SeqStmt, target: s.Stmt,
                  new_stmts: Iterable[s.Stmt]) -> None:
    """Insert ``new_stmts`` immediately before ``target`` in ``seq``."""
    index = _index_of(seq, target)
    seq.stmts[index:index] = list(new_stmts)


def insert_after(seq: s.SeqStmt, target: s.Stmt,
                 new_stmts: Iterable[s.Stmt]) -> None:
    """Insert ``new_stmts`` immediately after ``target`` in ``seq``."""
    index = _index_of(seq, target)
    seq.stmts[index + 1:index + 1] = list(new_stmts)


def _index_of(seq: s.SeqStmt, target: s.Stmt) -> int:
    for index, stmt in enumerate(seq.stmts):
        if stmt is target:
            return index
    raise TransformError(
        f"statement S{target.label} not found in sequence S{seq.label}")


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------


def clone_stmt(stmt: s.Stmt,
               label_map: Optional[Dict[int, int]] = None) -> s.Stmt:
    """Deep-copy a statement tree with fresh labels.

    ``label_map`` (old label -> new label) is filled in when provided, so
    callers can translate recorded label lists (e.g. tuple ``Dlist``\\ s).
    """
    clone = _clone(stmt)
    if label_map is not None:
        _record_labels(stmt, clone, label_map)
    return clone


def _record_labels(old: s.Stmt, new: s.Stmt,
                   label_map: Dict[int, int]) -> None:
    label_map[old.label] = new.label
    for old_child, new_child in zip(old.children(), new.children()):
        _record_labels(old_child, new_child, label_map)


def _clone(stmt: s.Stmt) -> s.Stmt:
    if isinstance(stmt, s.AssignStmt):
        return s.AssignStmt(_clone_lv(stmt.lhs), _clone_rhs(stmt.rhs),
                            split_phase=stmt.split_phase)
    if isinstance(stmt, s.CallStmt):
        placement = stmt.placement
        if placement is not None and placement[0] == "node":
            placement = ("node", _clone_operand(placement[1]))
        return s.CallStmt(stmt.target, stmt.func,
                          [_clone_operand(a) for a in stmt.args], placement)
    if isinstance(stmt, s.AllocStmt):
        node = None if stmt.node is None else _clone_operand(stmt.node)
        return s.AllocStmt(stmt.target, _clone_operand(stmt.words), node,
                           stmt.site, stmt.struct)
    if isinstance(stmt, s.BlkmovStmt):
        return s.BlkmovStmt(stmt.src, stmt.dst, stmt.words,
                            split_phase=stmt.split_phase)
    if isinstance(stmt, s.SharedOpStmt):
        value = None if stmt.value is None else _clone_operand(stmt.value)
        return s.SharedOpStmt(stmt.op, stmt.shared_var, value, stmt.target)
    if isinstance(stmt, s.ReturnStmt):
        value = None if stmt.value is None else _clone_operand(stmt.value)
        return s.ReturnStmt(value)
    if isinstance(stmt, s.PrintStmt):
        return s.PrintStmt(stmt.format,
                           [_clone_operand(a) for a in stmt.args])
    if isinstance(stmt, s.NopStmt):
        return s.NopStmt()
    if isinstance(stmt, s.SeqStmt):
        return s.SeqStmt([_clone(child) for child in stmt.stmts])
    if isinstance(stmt, s.IfStmt):
        return s.IfStmt(_clone_cond(stmt.cond),
                        _clone(stmt.then_seq),  # type: ignore[arg-type]
                        _clone(stmt.else_seq))  # type: ignore[arg-type]
    if isinstance(stmt, s.SwitchStmt):
        cases = [(value, _clone(seq)) for value, seq in stmt.cases]
        default = None if stmt.default is None else _clone(stmt.default)
        return s.SwitchStmt(_clone_operand(stmt.scrutinee),
                            cases, default)  # type: ignore[arg-type]
    if isinstance(stmt, s.WhileStmt):
        return s.WhileStmt(_clone_cond(stmt.cond),
                           _clone(stmt.body))  # type: ignore[arg-type]
    if isinstance(stmt, s.DoStmt):
        return s.DoStmt(_clone(stmt.body),  # type: ignore[arg-type]
                        _clone_cond(stmt.cond))
    if isinstance(stmt, s.ParStmt):
        return s.ParStmt([_clone(b) for b in stmt.branches])  # type: ignore[list-item]
    if isinstance(stmt, s.ForallStmt):
        return s.ForallStmt(
            _clone(stmt.init),  # type: ignore[arg-type]
            _clone_cond(stmt.cond),
            _clone(stmt.step),  # type: ignore[arg-type]
            _clone(stmt.body))  # type: ignore[arg-type]
    raise TransformError(f"cannot clone {stmt!r}")  # pragma: no cover


def _clone_operand(operand: s.Operand) -> s.Operand:
    if isinstance(operand, s.Const):
        return s.Const(operand.value)
    if isinstance(operand, s.VarUse):
        return s.VarUse(operand.name)
    raise TransformError(f"cannot clone operand {operand!r}")


def _clone_cond(cond: s.CondExpr) -> s.CondExpr:
    right = None if cond.right is None else _clone_operand(cond.right)
    return s.CondExpr(_clone_operand(cond.left), cond.op, right)


def _clone_rhs(rhs: s.Rhs) -> s.Rhs:
    if isinstance(rhs, s.OperandRhs):
        return s.OperandRhs(_clone_operand(rhs.operand))
    if isinstance(rhs, s.UnaryRhs):
        return s.UnaryRhs(rhs.op, _clone_operand(rhs.operand))
    if isinstance(rhs, s.BinaryRhs):
        return s.BinaryRhs(rhs.op, _clone_operand(rhs.left),
                           _clone_operand(rhs.right))
    if isinstance(rhs, s.ConvertRhs):
        return s.ConvertRhs(rhs.kind, _clone_operand(rhs.operand))
    if isinstance(rhs, s.AddrOfRhs):
        return s.AddrOfRhs(rhs.var)
    if isinstance(rhs, s.FieldAddrRhs):
        return s.FieldAddrRhs(rhs.base, rhs.path)
    if isinstance(rhs, s.FieldReadRhs):
        return s.FieldReadRhs(rhs.base, rhs.path, rhs.remote)
    if isinstance(rhs, s.DerefReadRhs):
        return s.DerefReadRhs(rhs.base, rhs.remote)
    if isinstance(rhs, s.IndexReadRhs):
        return s.IndexReadRhs(rhs.base, _clone_operand(rhs.index),
                              rhs.remote)
    if isinstance(rhs, s.StructFieldReadRhs):
        return s.StructFieldReadRhs(rhs.struct_var, rhs.path)
    raise TransformError(f"cannot clone rhs {rhs!r}")


def _clone_lv(lv: s.LValue) -> s.LValue:
    if isinstance(lv, s.VarLV):
        return s.VarLV(lv.name)
    if isinstance(lv, s.FieldWriteLV):
        return s.FieldWriteLV(lv.base, lv.path, lv.remote)
    if isinstance(lv, s.DerefWriteLV):
        return s.DerefWriteLV(lv.base, lv.remote)
    if isinstance(lv, s.IndexWriteLV):
        return s.IndexWriteLV(lv.base, _clone_operand(lv.index), lv.remote)
    if isinstance(lv, s.StructFieldWriteLV):
        return s.StructFieldWriteLV(lv.struct_var, lv.path)
    raise TransformError(f"cannot clone lvalue {lv!r}")
