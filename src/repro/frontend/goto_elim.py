"""Structured control-flow restoration (goto/break/continue elimination).

The McCAT compiler runs goto elimination (Erosa & Hendren, ICCL'94) so
that SIMPLE contains only structured control flow; the paper's analyses
rely on this ("There is no irregular flow of control").  This module
implements the subset needed for C programs in the benchmark dialect:

* ``break`` / ``continue`` inside ``while`` / ``do`` / ``for`` loops are
  replaced by guard flags (``switch``-terminating ``break`` is consumed
  by the parser and never reaches here);
* **forward** ``goto`` to a label in the same or an enclosing statement
  sequence is replaced by a guard flag, following the Erosa-Hendren
  "lifting" approach: the goto raises its label's flag, every statement
  until the label is guarded by the flag being clear, and the label
  clears it;
* backward gotos and gotos that would have to jump *out of a loop* are
  rejected (no benchmark needs them; the full algorithm would introduce
  loop restructuring).

``for`` loops are rewritten to ``while`` loops here (init hoisted, step
appended) so continue-guarding can protect the body but not the step,
preserving C semantics.  ``forall`` loops must not contain break,
continue or goto (their iterations are unordered), which is enforced.

The pass runs *before* type checking; the flag variables it introduces
are ordinary ``int`` declarations the checker then sees.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import TransformError
from repro.frontend import ast_nodes as ast
from repro.frontend.types import INT

def _set_flag(name: str, value: int) -> ast.Stmt:
    return ast.ExprStmt(ast.Assign(ast.VarRef(name), ast.IntLit(value)))


def _flag_clear(name: str) -> ast.Expr:
    return ast.BinOp("==", ast.VarRef(name), ast.IntLit(0))


def _all_clear(flags: Set[str]) -> ast.Expr:
    cond: Optional[ast.Expr] = None
    for flag in sorted(flags):
        term = _flag_clear(flag)
        cond = term if cond is None else ast.BinOp("&&", cond, term)
    assert cond is not None
    return cond


def _as_stmt(stmts: List[ast.Stmt]) -> ast.Stmt:
    if len(stmts) == 1:
        return stmts[0]
    return ast.Block(stmts)


class _FunctionRewriter:
    """Rewrites one function body.

    ``_rewrite_stmt`` and ``_rewrite_seq`` return ``(statements,
    escaped)`` where ``escaped`` is the set of flag variables that may
    have been raised and not yet consumed -- the enclosing sequence
    guards its remaining statements with them.  Flags are numbered by
    ``serials``, one counter per program.
    """

    def __init__(self, func: ast.FunctionDecl, serials: Iterator[int]):
        self.func = func
        self.serials = serials
        self.new_decls: List[ast.VarDecl] = []
        self._goto_flags: Dict[str, str] = {}

    def run(self, has_goto: bool) -> None:
        """Rewrite the body; the backward-goto check runs only when the
        caller's scan found a ``goto`` in it."""
        if has_goto:
            self._check_no_backward_goto(self.func.body)
        body, escaped = self._rewrite_seq(self.func.body.stmts,
                                          break_flag=None, cont_flag=None)
        if escaped:
            unresolved = sorted(
                label for label, flag in self._goto_flags.items()
                if flag in escaped)
            raise TransformError(
                f"{self.func.name}: goto target(s) {unresolved} not found "
                f"in an enclosing statement sequence")
        self.func.body.stmts = self.new_decls + body

    # -- helpers --------------------------------------------------------------

    def _declare_flag(self, prefix: str) -> str:
        name = f"__{prefix}_{next(self.serials)}"
        self.new_decls.append(ast.VarDecl(name, INT, init=ast.IntLit(0)))
        return name

    def _goto_flag(self, label: str) -> str:
        flag = self._goto_flags.get(label)
        if flag is None:
            flag = self._declare_flag(f"goto_{label}")
            self._goto_flags[label] = flag
        return flag

    def _check_no_backward_goto(self, node: ast.Node) -> None:
        seen_labels: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Labeled):
                seen_labels.add(child.label)
            elif isinstance(child, ast.Goto):
                if child.label in seen_labels:
                    raise TransformError(
                        f"{self.func.name}: backward goto to "
                        f"{child.label!r} is not supported")

    # -- sequences ---------------------------------------------------------------

    def _rewrite_seq(self, stmts: List[ast.Stmt],
                     break_flag: Optional[str],
                     cont_flag: Optional[str]
                     ) -> Tuple[List[ast.Stmt], Set[str]]:
        result: List[ast.Stmt] = []
        for index, stmt in enumerate(stmts):
            rewritten, escaped = self._rewrite_stmt(stmt, break_flag,
                                                    cont_flag)
            result.extend(rewritten)
            if escaped:
                if index + 1 == len(stmts):
                    return result, escaped
                tail, still = self._guard_tail(stmts[index + 1:],
                                               break_flag, cont_flag,
                                               escaped)
                result.extend(tail)
                return result, still
        return result, set()

    def _guard_tail(self, rest: List[ast.Stmt],
                    break_flag: Optional[str], cont_flag: Optional[str],
                    flags: Set[str]
                    ) -> Tuple[List[ast.Stmt], Set[str]]:
        """Guard the remaining statements of a sequence with ``flags``.

        If the tail contains the label of a raised goto flag, only the
        statements before it are guarded by that flag; the label clears
        the flag and the remainder continues normally.
        """
        flag_by_label = {label: flag
                         for label, flag in self._goto_flags.items()
                         if flag in flags}
        for position, stmt in enumerate(rest):
            if isinstance(stmt, ast.Labeled) and \
                    stmt.label in flag_by_label:
                resolved_flag = flag_by_label[stmt.label]
                result: List[ast.Stmt] = []
                if position > 0:
                    pre, pre_escaped = self._rewrite_seq(
                        rest[:position], break_flag, cont_flag)
                    if pre_escaped:
                        raise TransformError(
                            f"{self.func.name}: overlapping goto regions "
                            f"are not supported")
                    result.append(ast.If(_all_clear(flags),
                                         _as_stmt(pre)))
                result.append(_set_flag(resolved_flag, 0))
                remaining_flags = flags - {resolved_flag}
                tail_stmts = [stmt.stmt] + rest[position + 1:]
                if remaining_flags:
                    tail, still = self._guard_tail(
                        tail_stmts, break_flag, cont_flag,
                        remaining_flags)
                else:
                    tail, still = self._rewrite_seq(
                        tail_stmts, break_flag, cont_flag)
                result.extend(tail)
                return result, still
        # No label in the tail: guard the whole remainder.
        inner, inner_escaped = self._rewrite_seq(rest, break_flag,
                                                 cont_flag)
        guarded: List[ast.Stmt] = []
        if inner:
            guarded.append(ast.If(_all_clear(flags), _as_stmt(inner)))
        return guarded, flags | inner_escaped

    # -- statements -----------------------------------------------------------------

    def _rewrite_stmt(self, stmt: ast.Stmt, break_flag: Optional[str],
                      cont_flag: Optional[str]
                      ) -> Tuple[List[ast.Stmt], Set[str]]:
        if isinstance(stmt, ast.Break):
            if break_flag is None:
                raise TransformError(
                    f"{self.func.name}: break outside of a loop")
            return [_set_flag(break_flag, 1)], {break_flag}
        if isinstance(stmt, ast.Continue):
            if cont_flag is None:
                raise TransformError(
                    f"{self.func.name}: continue outside of a loop")
            return [_set_flag(cont_flag, 1)], {cont_flag}
        if isinstance(stmt, ast.Goto):
            flag = self._goto_flag(stmt.label)
            return [_set_flag(flag, 1)], {flag}
        if isinstance(stmt, ast.Labeled):
            # A label reached by falling through; clear its flag (a no-op
            # unless some enclosing guard resolved here).
            inner, escaped = self._rewrite_stmt(stmt.stmt, break_flag,
                                                cont_flag)
            if stmt.label in self._goto_flags:
                inner = [_set_flag(self._goto_flags[stmt.label], 0)] \
                    + inner
            return inner, escaped
        if isinstance(stmt, ast.Block):
            new_stmts, escaped = self._rewrite_seq(stmt.stmts, break_flag,
                                                   cont_flag)
            stmt.stmts = new_stmts
            return [stmt], escaped
        if isinstance(stmt, ast.If):
            then_part, t_escaped = self._rewrite_stmt(
                stmt.then_body, break_flag, cont_flag)
            stmt.then_body = _as_stmt(then_part)
            e_escaped: Set[str] = set()
            if stmt.else_body is not None:
                else_part, e_escaped = self._rewrite_stmt(
                    stmt.else_body, break_flag, cont_flag)
                stmt.else_body = _as_stmt(else_part)
            return [stmt], t_escaped | e_escaped
        if isinstance(stmt, ast.Switch):
            escaped: Set[str] = set()
            for case in stmt.cases:
                new_stmts, case_escaped = self._rewrite_seq(
                    case.stmts, break_flag, cont_flag)
                case.stmts = new_stmts
                escaped |= case_escaped
            return [stmt], escaped
        if isinstance(stmt, ast.While):
            return self._rewrite_loop(cond=stmt.cond, body=stmt.body,
                                      step=None, is_do=False)
        if isinstance(stmt, ast.DoWhile):
            return self._rewrite_loop(cond=stmt.cond, body=stmt.body,
                                      step=None, is_do=True)
        if isinstance(stmt, ast.For):
            if stmt.is_forall:
                self._check_forall(stmt)
                inner, escaped = self._rewrite_stmt(stmt.body, None, None)
                assert not escaped
                stmt.body = _as_stmt(inner)
                return [stmt], set()
            result: List[ast.Stmt] = []
            if stmt.init is not None:
                result.append(ast.ExprStmt(stmt.init))
            cond = stmt.cond if stmt.cond is not None else ast.IntLit(1)
            loop, escaped = self._rewrite_loop(cond=cond, body=stmt.body,
                                               step=stmt.step,
                                               is_do=False)
            return result + loop, escaped
        # Leaf statements (declarations, expressions, returns...).
        return [stmt], set()

    def _check_forall(self, stmt: ast.For) -> None:
        for child in ast.walk(stmt.body):
            if isinstance(child, (ast.Break, ast.Continue, ast.Goto)):
                raise TransformError(
                    f"{self.func.name}: {type(child).__name__.lower()} "
                    f"inside forall is not allowed")

    def _rewrite_loop(self, cond: ast.Expr, body: ast.Stmt,
                      step: Optional[ast.Expr],
                      is_do: bool) -> Tuple[List[ast.Stmt], Set[str]]:
        uses_break = _contains_interrupt(body, ast.Break)
        uses_continue = _contains_interrupt(body, ast.Continue)
        break_flag = self._declare_flag("brk") if uses_break else None
        cont_flag = self._declare_flag("cont") if uses_continue else None

        inner, escaped = self._rewrite_stmt(body, break_flag, cont_flag)
        escaped -= {flag for flag in (break_flag, cont_flag)
                    if flag is not None}
        if escaped:
            raise TransformError(
                f"{self.func.name}: goto jumping out of a loop is not "
                f"supported")
        body_stmts: List[ast.Stmt] = []
        if cont_flag is not None:
            body_stmts.append(_set_flag(cont_flag, 0))
        body_stmts.extend(inner)
        if step is not None:
            step_stmt: ast.Stmt = ast.ExprStmt(step)
            if break_flag is not None:
                # The step must not run after break...
                step_stmt = ast.If(_flag_clear(break_flag), step_stmt)
            # ...but must run after continue, so no cont guard here.
            body_stmts.append(step_stmt)

        new_body = ast.Block(body_stmts)
        if break_flag is not None:
            new_cond: ast.Expr = ast.BinOp("&&", _flag_clear(break_flag),
                                           cond)
        else:
            new_cond = cond
        result: List[ast.Stmt] = []
        if break_flag is not None:
            result.append(_set_flag(break_flag, 0))
        if is_do:
            result.append(ast.DoWhile(new_body, new_cond))
        else:
            result.append(ast.While(new_cond, new_body))
        return result, set()


def _contains_interrupt(node: ast.Stmt, kind) -> bool:
    """Does ``node`` contain a break/continue belonging to this loop
    (i.e. not nested inside an inner loop)?  Not a recursive closure:
    that is a cell <-> function cycle per call, for the collector."""
    if isinstance(node, kind):
        return True
    if isinstance(node, (ast.While, ast.DoWhile, ast.For)):
        return False  # inner loop captures its own break/continue
    if isinstance(node, ast.Switch):
        # Parser consumed case-terminating breaks; any Break inside
        # case bodies here belongs to the loop.
        return any(_contains_interrupt(child, kind) for case in node.cases
                   for child in case.stmts)
    if isinstance(node, ast.Block):
        return any(_contains_interrupt(child, kind) for child in node.stmts)
    if isinstance(node, ast.If):
        if _contains_interrupt(node.then_body, kind):
            return True
        return node.else_body is not None \
            and _contains_interrupt(node.else_body, kind)
    if isinstance(node, ast.Labeled):
        return _contains_interrupt(node.stmt, kind)
    return False


#: What makes a function body need the rewrite, besides ``goto``.
_REWRITTEN = (ast.Break, ast.Continue, ast.For, ast.While, ast.DoWhile)


def eliminate_gotos(program: ast.Program) -> ast.Program:
    """Remove goto/break/continue from every function (in place).

    Run *before* type checking: the pass introduces new flag variables
    as ordinary declarations that the checker will then see.  They are
    numbered per program (``__brk_1``, ``__cont_2``, ...), so the same
    source always gets the same names.
    """
    serials = itertools.count(1)
    for func in program.functions:
        # One scan: does the body need a rewrite, and has it a goto?
        needs_rewrite = has_goto = False
        for node in ast.walk(func.body):
            if isinstance(node, ast.Goto):
                needs_rewrite = has_goto = True
                break
            if isinstance(node, _REWRITTEN):
                needs_rewrite = True
        if needs_rewrite:
            _FunctionRewriter(func, serials).run(has_goto)
    return program
