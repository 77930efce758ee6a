"""Local function inlining (Phase I of the McCAT pipeline).

The paper notes (Section 6) that interprocedural redundancy in tsp --
a pointer parameter invariant across several calls to ``distance`` --
is exposed "via function inlining".  This pass inlines calls to small,
non-recursive functions at the AST level, before type checking:

* only functions with **no** parallel constructs, **no** placement
  annotations anywhere in their body, and at most one ``return`` as the
  final statement are inlinable;
* calls *with* a placement annotation (``@OWNER_OF``...) are never
  inlined (the migration is the point);
* recursive (directly or mutually) functions are skipped via a call-graph
  SCC check;
* inlined locals and parameters are renamed ``__inl<k>_<name>`` to avoid
  capture.

Inlining a call nested inside an expression hoists it first: the
enclosing statement is rewritten so the inlined body lands just before
it and the call becomes a reference to a fresh result variable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, get_type_hints

from repro.frontend import ast_nodes as ast

#: Statements per function body above which we refuse to inline.
DEFAULT_MAX_STMTS = 30


def _count_stmts(node: ast.Node) -> int:
    return sum(1 for child in ast.walk(node) if isinstance(child, ast.Stmt))


def _has_disallowed_constructs(func: ast.FunctionDecl) -> bool:
    for node in ast.walk(func.body):
        if isinstance(node, (ast.ParallelSeq, ast.Goto, ast.Labeled)):
            return True
        if isinstance(node, ast.For) and node.is_forall:
            return True
        if isinstance(node, ast.Call) and node.placement is not None:
            return True
        if isinstance(node, ast.VarDecl) and node.is_shared:
            return True
    return False


def _single_trailing_return(func: ast.FunctionDecl) -> bool:
    returns = [node for node in ast.walk(func.body)
               if isinstance(node, ast.Return)]
    if not returns:
        return True
    if len(returns) > 1:
        return False
    return bool(func.body.stmts) and func.body.stmts[-1] is returns[0]


def _call_graph(program: ast.Program) -> Dict[str, Set[str]]:
    graph: Dict[str, Set[str]] = {}
    for func in program.functions:
        callees = {node.name for node in ast.walk(func.body)
                   if isinstance(node, ast.Call)}
        graph[func.name] = callees
    return graph


def _reaches(graph: Dict[str, Set[str]], start: str, goal: str) -> bool:
    """Can ``goal`` be reached from ``start`` through at least one call
    edge?  (Used for recursion detection: start == goal asks whether the
    function can call itself, so the start node itself is not a hit.)"""
    seen: Set[str] = set()
    stack = list(graph.get(start, ()))
    while stack:
        current = stack.pop()
        if current == goal:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(graph.get(current, ()))
    return False


def _expr_slots(cls: type) -> Tuple[str, ...]:
    """The slots of ``cls`` that hold one sub-expression, in slot
    order: those its constructor types as ``Expr``."""
    hints = get_type_hints(cls.__init__)
    return tuple(name for name in cls.__slots__
                 if hints.get(name) is ast.Expr)


#: Each expression class's sub-expression slots (``Call.args``, a
#: list, is visited on its own).
_EXPR_SLOTS: Dict[type, Tuple[str, ...]] = {
    cls: _expr_slots(cls) for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.Expr)
    and cls is not ast.Expr}


class _Renamer:
    """Clones a function body with fresh variable names."""

    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping

    def expr(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.VarRef):
            return ast.VarRef(self.mapping.get(node.name, node.name),
                              node.loc)
        if isinstance(node, (ast.IntLit, ast.FloatLit, ast.CharLit,
                             ast.StringLit)):
            return node
        if isinstance(node, ast.BinOp):
            return ast.BinOp(node.op, self.expr(node.left),
                             self.expr(node.right), node.loc)
        if isinstance(node, ast.UnOp):
            return ast.UnOp(node.op, self.expr(node.operand), node.loc)
        if isinstance(node, ast.Deref):
            return ast.Deref(self.expr(node.pointer), node.loc)
        if isinstance(node, ast.AddrOf):
            return ast.AddrOf(self.expr(node.operand), node.loc)
        if isinstance(node, ast.FieldAccess):
            return ast.FieldAccess(self.expr(node.base), node.field,
                                   node.arrow, node.loc)
        if isinstance(node, ast.Index):
            return ast.Index(self.expr(node.base), self.expr(node.index),
                             node.loc)
        if isinstance(node, ast.SizeOf):
            return ast.SizeOf(node.target_type, node.loc)
        if isinstance(node, ast.Cast):
            return ast.Cast(node.target_type, self.expr(node.operand),
                            node.loc)
        if isinstance(node, ast.CondExpr):
            return ast.CondExpr(self.expr(node.cond),
                                self.expr(node.then_value),
                                self.expr(node.else_value), node.loc)
        if isinstance(node, ast.Assign):
            return ast.Assign(self.expr(node.lhs), self.expr(node.rhs),
                              node.op, node.loc)
        if isinstance(node, ast.IncDec):
            return ast.IncDec(self.expr(node.operand), node.op,
                              node.is_prefix, node.loc)
        if isinstance(node, ast.Call):
            return ast.Call(node.name,
                            [self.expr(a) for a in node.args],
                            None, node.loc)
        raise TypeError(f"cannot rename {node!r}")  # pragma: no cover

    def stmt(self, node: ast.Stmt) -> ast.Stmt:
        if isinstance(node, ast.VarDecl):
            init = self.expr(node.init) if node.init is not None else None
            return ast.VarDecl(self.mapping[node.name], node.var_type,
                               node.is_shared, init, node.loc)
        if isinstance(node, ast.ExprStmt):
            return ast.ExprStmt(self.expr(node.expr), node.loc)
        if isinstance(node, ast.Block):
            return ast.Block([self.stmt(child) for child in node.stmts],
                             node.loc)
        if isinstance(node, ast.If):
            else_body = self.stmt(node.else_body) \
                if node.else_body is not None else None
            return ast.If(self.expr(node.cond), self.stmt(node.then_body),
                          else_body, node.loc)
        if isinstance(node, ast.While):
            return ast.While(self.expr(node.cond), self.stmt(node.body),
                             node.loc)
        if isinstance(node, ast.DoWhile):
            return ast.DoWhile(self.stmt(node.body), self.expr(node.cond),
                               node.loc)
        if isinstance(node, ast.For):
            return ast.For(
                self.expr(node.init) if node.init is not None else None,
                self.expr(node.cond) if node.cond is not None else None,
                self.expr(node.step) if node.step is not None else None,
                self.stmt(node.body), node.is_forall, node.loc)
        if isinstance(node, ast.Switch):
            cases = [ast.SwitchCase(case.value,
                                    [self.stmt(child)
                                     for child in case.stmts])
                     for case in node.cases]
            return ast.Switch(self.expr(node.scrutinee), cases, node.loc)
        if isinstance(node, ast.Return):
            value = self.expr(node.value) if node.value is not None \
                else None
            return ast.Return(value, node.loc)
        if isinstance(node, (ast.Break, ast.Continue, ast.EmptyStmt)):
            return node
        raise TypeError(f"cannot rename {node!r}")  # pragma: no cover


class Inliner:
    """Inlines calls in one program (in place)."""

    def __init__(self, program: ast.Program,
                 max_stmts: int = DEFAULT_MAX_STMTS,
                 only: Optional[Set[str]] = None):
        self.program = program
        self.max_stmts = max_stmts
        self.only = only
        #: Call sites expanded so far, over every round; also the serial
        #: that keeps one expansion's renamed locals apart from the next.
        self.inlined_calls = 0

    def _find_inlinable(self) -> Dict[str, ast.FunctionDecl]:
        table: Dict[str, ast.FunctionDecl] = {}
        for func in self.program.functions:
            if not func.body.stmts:
                continue  # prototype
            if self.only is not None and func.name not in self.only:
                continue
            if self.only is None and \
                    _count_stmts(func.body) > self.max_stmts:
                continue
            if _has_disallowed_constructs(func):
                continue
            if not _single_trailing_return(func):
                continue
            if _reaches(self.graph, func.name, func.name):
                continue  # recursive
            table[func.name] = func
        return table

    def run(self) -> int:
        """One pass over the program as it now stands; returns how many
        call sites this pass expanded."""
        self.graph = _call_graph(self.program)
        self.inlinable = self._find_inlinable()
        before = self.inlined_calls
        for func in self.program.functions:
            func.body.stmts = self._process_block(func.body.stmts,
                                                  func.name)
        return self.inlined_calls - before

    # -- block processing ----------------------------------------------------------

    def _process_block(self, stmts: List[ast.Stmt],
                       host: str) -> List[ast.Stmt]:
        result: List[ast.Stmt] = []
        for stmt in stmts:
            prelude: List[ast.Stmt] = []
            stmt = self._process_stmt(stmt, host, prelude)
            result.extend(prelude)
            result.append(stmt)
        return result

    def _process_stmt(self, stmt: ast.Stmt, host: str,
                      prelude: List[ast.Stmt]) -> ast.Stmt:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                stmt.init = self._process_expr(stmt.init, host, prelude)
            return stmt
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._process_expr(stmt.expr, host, prelude)
            return stmt
        if isinstance(stmt, ast.Block):
            stmt.stmts = self._process_block(stmt.stmts, host)
            return stmt
        if isinstance(stmt, ast.ParallelSeq):
            stmt.stmts = self._process_block(stmt.stmts, host)
            return stmt
        if isinstance(stmt, ast.If):
            stmt.cond = self._process_expr(stmt.cond, host, prelude)
            stmt.then_body = self._wrap(self._descend(stmt.then_body, host))
            if stmt.else_body is not None:
                stmt.else_body = self._wrap(
                    self._descend(stmt.else_body, host))
            return stmt
        if isinstance(stmt, (ast.While, ast.DoWhile)):
            # Conditions with inlinable calls inside loops would need
            # per-iteration re-expansion; keep those calls un-inlined.
            stmt.body = self._wrap(self._descend(stmt.body, host))
            return stmt
        if isinstance(stmt, ast.For):
            stmt.body = self._wrap(self._descend(stmt.body, host))
            return stmt
        if isinstance(stmt, ast.Switch):
            for case in stmt.cases:
                case.stmts = self._process_block(case.stmts, host)
            return stmt
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self._process_expr(stmt.value, host, prelude)
            return stmt
        if isinstance(stmt, ast.Labeled):
            stmt.stmt = self._process_stmt(stmt.stmt, host, prelude)
            return stmt
        return stmt

    def _descend(self, stmt: ast.Stmt, host: str) -> List[ast.Stmt]:
        return self._process_block([stmt], host)

    @staticmethod
    def _assigned_params(target: ast.FunctionDecl) -> Set[str]:
        """Parameters the body reassigns (those need binding temps)."""
        names = {param.name for param in target.params}
        assigned: Set[str] = set()
        for node in ast.walk(target.body):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.lhs, ast.VarRef) and \
                    node.lhs.name in names:
                assigned.add(node.lhs.name)
            elif isinstance(node, ast.IncDec) and \
                    isinstance(node.operand, ast.VarRef) and \
                    node.operand.name in names:
                assigned.add(node.operand.name)
        return assigned

    @staticmethod
    def _wrap(stmts: List[ast.Stmt]) -> ast.Stmt:
        if len(stmts) == 1:
            return stmts[0]
        return ast.Block(stmts)

    # -- expression processing -------------------------------------------------------

    def _process_expr(self, expr: ast.Expr, host: str,
                      prelude: List[ast.Stmt]) -> ast.Expr:
        # Post-order: inline innermost calls first.
        for name in _EXPR_SLOTS[type(expr)]:
            setattr(expr, name, self._process_expr(getattr(expr, name),
                                                   host, prelude))
        if isinstance(expr, ast.Call):
            expr.args = [self._process_expr(arg, host, prelude)
                         for arg in expr.args]
            target = self.inlinable.get(expr.name)
            if target is not None and expr.placement is None \
                    and target.name != host:
                return self._inline_call(expr, target, prelude)
        return expr

    def _inline_call(self, call: ast.Call, target: ast.FunctionDecl,
                     prelude: List[ast.Stmt]) -> ast.Expr:
        self.inlined_calls += 1
        serial = self.inlined_calls
        mapping: Dict[str, str] = {}
        for node in ast.walk(target.body):
            if isinstance(node, ast.VarDecl):
                mapping[node.name] = f"__inl{serial}_{node.name}"
        assigned_params = self._assigned_params(target)

        # Bind arguments.  A plain-variable argument whose parameter is
        # never reassigned substitutes directly -- this keeps the base
        # pointer variable of remote accesses intact, so the placement
        # analysis can group the inlined accesses with the caller's own
        # (the paper's Fig. 11b relies on this).
        for param, arg in zip(target.params, call.args):
            if isinstance(arg, ast.VarRef) \
                    and param.name not in assigned_params:
                mapping[param.name] = arg.name
            else:
                mapping[param.name] = f"__inl{serial}_{param.name}"
                prelude.append(ast.VarDecl(mapping[param.name], param.type,
                                           False, arg, call.loc))
        renamer = _Renamer(mapping)
        # Clone the body; the trailing return becomes the result value.
        body = [renamer.stmt(stmt) for stmt in target.body.stmts]
        result_expr: ast.Expr = ast.IntLit(0, call.loc)
        if body and isinstance(body[-1], ast.Return):
            trailing = body.pop()
            if trailing.value is not None:  # type: ignore[union-attr]
                result_expr = trailing.value  # type: ignore[union-attr]
        prelude.extend(body)
        if target.return_type.is_void:
            return ast.IntLit(0, call.loc)
        # Double underscore: cannot collide with renamed locals, whose
        # names are __inl<serial>_<single-underscore-original>.
        result_name = f"__inl{serial}__retval"
        prelude.append(ast.VarDecl(result_name, target.return_type, False,
                                   result_expr, call.loc))
        return ast.VarRef(result_name, call.loc)


def inline_functions(program: ast.Program,
                     max_stmts: int = DEFAULT_MAX_STMTS,
                     only: Optional[Set[str]] = None,
                     max_rounds: int = 3) -> int:
    """Inline small local functions in place; returns the number of call
    sites expanded.  ``only`` restricts inlining to the named functions.

    Runs up to ``max_rounds`` passes so calls cloned from inlined bodies
    get expanded too (bounded to keep code growth in check).
    """
    inliner = Inliner(program, max_stmts, only)
    for _ in range(max_rounds):
        if inliner.run() == 0:
            break
    return inliner.inlined_calls
