"""Struct field reordering (the paper's "further work", Section 7).

    "We would also like to add techniques for finding the best
    organization for fields within each struct.  By placing those
    fields that are accessed remotely located close to one another, we
    can further improve the efficiency of the blocked communication."

This pass implements that idea.  For every struct it computes a static
*remote affinity* score per field -- how often the field appears in
(potentially) remote accesses, weighted by loop depth the way the
placement analysis weights frequencies -- and re-lays the struct so
hot fields come first and cluster together.  The communication
selection's spurious-field check (``struct_words <= ratio *
words_needed``) then succeeds more often, and partial block moves (a
``blkmov`` of the hot prefix) cover more accesses per word moved.

The transformation is applied between type checking and simplification:
it permutes each struct's member list (recomputing offsets), which is
safe at that point because nothing has materialized offsets yet --
SIMPLE, the analyses and the simulator all resolve field paths against
the live :class:`StructType`.

Fields are never moved across a ``local``-struct boundary concern
because EARTH-C structs in this dialect have no external ABI; the only
observable change is communication cost.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.comm.optconfig import BRANCH_WEIGHT, LOOP_WEIGHT
from repro.frontend import ast_nodes as ast
from repro.frontend.types import PointerType, StructType

class ReorderReport:
    """Per-struct affinity scores and the chosen field orders."""

    def __init__(self):
        self.scores: Dict[str, Dict[str, float]] = {}
        self.orders: Dict[str, List[str]] = {}
        self.changed: List[str] = []

    def __repr__(self) -> str:
        return f"ReorderReport(changed={self.changed})"


def _access_weights(program: ast.Program) -> Dict[str, Dict[str, float]]:
    """Remote-affinity score per (struct, field), from the typed AST."""
    scores: Dict[str, Dict[str, float]] = {}

    def visit_expr(expr: ast.Expr, weight: float) -> None:
        for child in expr.children():
            if isinstance(child, ast.Expr):
                visit_expr(child, weight)
        if isinstance(expr, ast.FieldAccess):
            base_type = expr.base.type
            struct = None
            remote = True
            if expr.arrow and isinstance(base_type, PointerType):
                struct = base_type.target
                remote = not base_type.is_local
            elif not expr.arrow and isinstance(base_type, StructType):
                # Local struct variable access: never remote.
                struct = base_type
                remote = False
            if isinstance(struct, StructType) and remote:
                per_field = scores.setdefault(struct.name, {})
                per_field[expr.field] = per_field.get(expr.field, 0.0) \
                    + weight

    def visit_stmt(stmt: ast.Stmt, weight: float) -> None:
        if isinstance(stmt, (ast.While, ast.DoWhile)):
            visit_expr(stmt.cond, weight * LOOP_WEIGHT)
            visit_stmt(stmt.body, weight * LOOP_WEIGHT)
            return
        if isinstance(stmt, ast.For):
            for part in (stmt.init, stmt.cond, stmt.step):
                if part is not None:
                    visit_expr(part, weight * LOOP_WEIGHT)
            visit_stmt(stmt.body, weight * LOOP_WEIGHT)
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                visit_stmt(child, weight)
            return
        if isinstance(stmt, ast.ParallelSeq):
            for child in stmt.stmts:
                visit_stmt(child, weight)
            return
        if isinstance(stmt, ast.If):
            visit_expr(stmt.cond, weight)
            visit_stmt(stmt.then_body, weight * BRANCH_WEIGHT)
            if stmt.else_body is not None:
                visit_stmt(stmt.else_body, weight * BRANCH_WEIGHT)
            return
        if isinstance(stmt, ast.Switch):
            visit_expr(stmt.scrutinee, weight)
            arms = max(len(stmt.cases), 1)
            for case in stmt.cases:
                for child in case.stmts:
                    visit_stmt(child, weight / arms)
            return
        for child in stmt.children():
            if isinstance(child, ast.Expr):
                visit_expr(child, weight)
            elif isinstance(child, ast.Stmt):
                visit_stmt(child, weight)

    for func in program.functions:
        visit_stmt(func.body, 1.0)
    return scores


def reorder_struct_fields(program: ast.Program) -> ReorderReport:
    """Permute struct member orders by descending remote affinity.

    Must run after :func:`~repro.frontend.typecheck.check_program`
    (expression types are needed) and before
    :func:`~repro.frontend.simplify.simplify_program`.  Stable: fields
    with equal scores keep their declaration order, so cold fields stay
    put and programs without remote accesses are untouched.
    """
    report = ReorderReport()
    report.scores = _access_weights(program)
    for struct in program.structs:
        per_field = report.scores.get(struct.name, {})
        original = [(field.name, field.type) for field in struct.fields]
        ordered = sorted(
            original,
            key=lambda item: -per_field.get(item[0], 0.0))
        report.orders[struct.name] = [name for name, _ in ordered]
        if ordered != original:
            _relayout(struct, ordered)
            report.changed.append(struct.name)
    return report


def _relayout(struct: StructType,
              members: List[Tuple[str, object]]) -> None:
    """Re-define ``struct`` with the new member order (offsets are
    recomputed by ``define``)."""
    struct._fields = None  # noqa: SLF001 - intentional re-layout
    struct._by_name = {}
    struct._size_words = 0
    struct.define(members)  # type: ignore[arg-type]
