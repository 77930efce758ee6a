"""Lowering from the EARTH-C AST to the SIMPLE representation.

This implements McCAT's "Simplify" phase for our dialect: after the pass,

* every basic statement is in three-address form with at most one
  (potentially) remote access -- the property the paper's algorithms need
  (its Figure 3(b)/4(b) show exactly this shape);
* conditions of ``if``/``while``/``do``/``switch`` contain only variables
  and constants; the statements computing a loop condition are emitted
  before the loop and (re-lowered) at the end of its body, preserving
  per-iteration evaluation;
* whole-struct assignments become ``blkmov`` statements (the paper's
  footnote 3: the unoptimized compiler already emits blkmovs for struct
  assignments);
* short-circuit ``&&``/``||`` and the ternary operator become structured
  control flow;
* nested scopes are flattened into one function-level namespace with
  renaming.

Restrictions of the dialect (diagnosed, not silently miscompiled):
taking the address of a *stack scalar* is unsupported (stack frames are
not addressable in the simulator; heap and global addresses are);
struct-by-value parameters/returns and global struct variables are
unsupported; ``forall``
conditions must be simple comparisons of variables/constants.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SimplifyError
from repro.frontend import ast_nodes as ast
from repro.frontend.builtins import builtin_symbols
from repro.frontend.symtab import ProgramSymbols
from repro.frontend.types import (
    DOUBLE,
    INT,
    FieldPath,
    PointerType,
    ScalarType,
    StructType,
    Type,
)
from repro.simple import nodes as s
from repro.simple.traversal import clone_stmt

# Access descriptors produced by _resolve_access:
#   ("var", name)
#   ("field", base_ptr_var, FieldPath, remote, field_type)
#   ("deref", ptr_var, remote, pointee_type)
#   ("index", base_ptr_var, index_operand, remote, elem_type)
#   ("localfield", struct_var, FieldPath, field_type)


class Simplifier:
    """Lowers one type-checked program.  Use :func:`simplify_program`."""

    def __init__(self, program: ast.Program, symbols: ProgramSymbols):
        self.ast_program = program
        self.symbols = symbols
        self.builtins = builtin_symbols()
        globals_: Dict[str, s.SimpleVar] = {}
        for decl in program.globals:
            if decl.var_type.is_struct:
                raise SimplifyError(
                    f"{decl.loc}: global {decl.name!r} is declared "
                    f"{decl.var_type}; global struct variables are not "
                    f"supported (use a heap object or a global pointer)")
            globals_[decl.name] = s.SimpleVar(
                decl.name, decl.var_type, "local", decl.is_shared)
        self.simple = s.SimpleProgram(symbols.structs, globals_)
        self.simple.global_inits = self._global_inits(program)
        self._func: Optional[s.SimpleFunction] = None
        self._stmts_stack: List[List[s.Stmt]] = []
        self._scope_stack: List[Dict[str, str]] = []
        self._site_counter = itertools.count(1)

    # -- public API ------------------------------------------------------------

    def run(self) -> s.SimpleProgram:
        for func in self.ast_program.functions:
            self.simple.add_function(self._lower_function(func))
        return self.simple

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _global_inits(program: ast.Program) -> Dict[str, Union[int, float]]:
        inits: Dict[str, Union[int, float]] = {}
        for decl in program.globals:
            if decl.init is None:
                continue
            value = _const_value(decl.init)
            if value is None:
                raise SimplifyError(
                    f"global {decl.name!r}: initializer must be a constant")
            inits[decl.name] = value
        return inits

    def _emit(self, stmt: s.Stmt) -> s.Stmt:
        self._stmts_stack[-1].append(stmt)
        return stmt

    def _collect(self, lower) -> List[s.Stmt]:
        """Run ``lower()`` collecting emitted statements into a new list."""
        self._stmts_stack.append([])
        lower()
        return self._stmts_stack.pop()

    def _push_scope(self) -> None:
        self._scope_stack.append({})

    def _pop_scope(self) -> None:
        self._scope_stack.pop()

    def _declare_local(self, name: str, type: Type,
                       is_shared: bool = False) -> str:
        """Declare a source local, renaming on collision with an outer
        scope or an earlier sibling scope."""
        assert self._func is not None
        unique = name
        suffix = 2
        while unique in self._func.variables:
            unique = f"{name}__{suffix}"
            suffix += 1
        self._func.declare(unique, type, "local", is_shared)
        self._scope_stack[-1][name] = unique
        return unique

    def _resolve_name(self, name: str) -> str:
        for scope in reversed(self._scope_stack):
            if name in scope:
                return scope[name]
        return name  # parameter or global

    def _var_type(self, name: str) -> Type:
        assert self._func is not None
        var = self._func.variables.get(name)
        if var is None:
            var = self.simple.globals.get(name)
        if var is None:
            raise SimplifyError(f"unknown variable {name!r}")
        return var.type

    def _temp(self, type: Type) -> str:
        assert self._func is not None
        return self._func.fresh_temp(type)

    def _site(self, loc) -> str:
        assert self._func is not None
        return f"{self._func.name}:{loc.line}#{next(self._site_counter)}"

    @staticmethod
    def _is_remote_ptr(ptr_type: Type) -> bool:
        return isinstance(ptr_type, PointerType) and not ptr_type.is_local

    # -- functions ------------------------------------------------------------------

    def _lower_function(self, func: ast.FunctionDecl) -> s.SimpleFunction:
        for param in func.params:
            if param.type.is_struct:
                raise SimplifyError(
                    f"{func.name}: struct-by-value parameter "
                    f"{param.name!r} is not supported")
        if func.return_type.is_struct:
            raise SimplifyError(
                f"{func.name}: struct return values are not supported")
        params = [s.SimpleVar(p.name, p.type, "param") for p in func.params]
        simple_func = s.SimpleFunction(func.name, func.return_type, params)
        self._func = simple_func
        self._scope_stack = []
        self._push_scope()
        stmts = self._collect(lambda: self._lower_block(func.body))
        self._pop_scope()
        simple_func.body = s.SeqStmt(stmts)
        self._func = None
        return simple_func

    # -- statements --------------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        self._push_scope()
        for stmt in block.stmts:
            self._lower_stmt(stmt)
        self._pop_scope()

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            unique = self._declare_local(stmt.name, stmt.var_type,
                                         stmt.is_shared)
            if stmt.init is not None:
                self._lower_assign_to_var(unique, stmt.init)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr_stmt(stmt.expr)
        elif isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.ParallelSeq):
            self._lower_parseq(stmt)
        elif isinstance(stmt, ast.Labeled):
            self._lower_stmt(stmt.stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Goto)):
            raise SimplifyError(
                f"{type(stmt).__name__} survived goto elimination -- run "
                f"eliminate_gotos() before simplify")
        else:  # pragma: no cover
            raise SimplifyError(f"unknown statement {stmt!r}")

    def _lower_expr_stmt(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Assign):
            self._lower_assignment(expr)
        elif isinstance(expr, ast.IncDec):
            self._lower_incdec(expr)
        elif isinstance(expr, ast.Call):
            self._lower_call(expr, want_value=False)
        else:
            # Evaluate for (remote-read) effect and drop the value.
            self._lower_value(expr)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_condition(stmt.cond)
        then_stmts = self._collect(lambda: self._lower_scoped(stmt.then_body))
        else_stmts: List[s.Stmt] = []
        if stmt.else_body is not None:
            else_stmts = self._collect(
                lambda: self._lower_scoped(stmt.else_body))
        self._emit(s.IfStmt(cond, s.SeqStmt(then_stmts),
                            s.SeqStmt(else_stmts)))

    def _lower_scoped(self, stmt: ast.Stmt) -> None:
        self._push_scope()
        self._lower_stmt(stmt)
        self._pop_scope()

    def _lower_while(self, stmt: ast.While) -> None:
        cond_stmts = self._collect(
            lambda: setattr(self, "_cond_tmp",
                            self._lower_condition(stmt.cond)))
        cond = self._cond_tmp
        for cs in cond_stmts:
            self._emit(cs)
        body_stmts = self._collect(lambda: self._lower_scoped(stmt.body))
        # Re-evaluate the condition at the end of each iteration.
        body_stmts.extend(clone_stmt(cs) for cs in cond_stmts)
        self._emit(s.WhileStmt(cond, s.SeqStmt(body_stmts)))

    def _lower_do(self, stmt: ast.DoWhile) -> None:
        cond_stmts = self._collect(
            lambda: setattr(self, "_cond_tmp",
                            self._lower_condition(stmt.cond)))
        cond = self._cond_tmp
        body_stmts = self._collect(lambda: self._lower_scoped(stmt.body))
        body_stmts.extend(cond_stmts)
        self._emit(s.DoStmt(s.SeqStmt(body_stmts), cond))

    def _lower_for(self, stmt: ast.For) -> None:
        if not stmt.is_forall:
            # Ordinary `for` loops were rewritten to `while` by goto
            # elimination; accept a leftover one by desugaring here.
            if stmt.init is not None:
                self._lower_expr_stmt(stmt.init)
            cond_expr = stmt.cond if stmt.cond is not None else ast.IntLit(1)
            body = ast.Block([stmt.body] + (
                [ast.ExprStmt(stmt.step)] if stmt.step is not None else []))
            self._lower_while(ast.While(cond_expr, body, stmt.loc))
            return
        # forall
        init_stmts = self._collect(
            lambda: self._lower_expr_stmt(stmt.init)
            if stmt.init is not None else None)
        cond_stmts = self._collect(
            lambda: setattr(self, "_cond_tmp",
                            self._lower_condition(stmt.cond)
                            if stmt.cond is not None
                            else s.CondExpr(s.Const(1))))
        if cond_stmts:
            raise SimplifyError(
                "forall condition must be a simple comparison of "
                "variables/constants (no dereferences or calls)")
        cond = self._cond_tmp
        step_stmts = self._collect(
            lambda: self._lower_expr_stmt(stmt.step)
            if stmt.step is not None else None)
        body_stmts = self._collect(lambda: self._lower_scoped(stmt.body))
        self._emit(s.ForallStmt(s.SeqStmt(init_stmts), cond,
                                s.SeqStmt(step_stmts),
                                s.SeqStmt(body_stmts)))

    def _lower_switch(self, stmt: ast.Switch) -> None:
        scrutinee = self._lower_value(stmt.scrutinee)
        cases: List[Tuple[int, s.SeqStmt]] = []
        default: Optional[s.SeqStmt] = None
        for case in stmt.cases:
            def lower_arm(arm=case):
                self._push_scope()
                for child in arm.stmts:
                    self._lower_stmt(child)
                self._pop_scope()
            seq = s.SeqStmt(self._collect(lower_arm))
            if case.value is None:
                default = seq
            else:
                cases.append((case.value, seq))
        self._emit(s.SwitchStmt(scrutinee, cases, default))

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self._emit(s.ReturnStmt(None))
        else:
            operand = self._lower_value(stmt.value)
            self._emit(s.ReturnStmt(operand))

    def _lower_parseq(self, stmt: ast.ParallelSeq) -> None:
        branches: List[s.SeqStmt] = []
        for child in stmt.stmts:
            branch_stmts = self._collect(lambda c=child: self._lower_scoped(c))
            branches.append(s.SeqStmt(branch_stmts))
        self._emit(s.ParStmt(branches))

    # -- assignments -----------------------------------------------------------------

    def _lower_assignment(self, expr: ast.Assign) -> None:
        if expr.op is not None:
            # Compound assignment: a op= b  ==>  a = a op b (the lhs is
            # re-resolved; lvalue evaluation in the dialect has no side
            # effects so single-evaluation semantics are preserved).
            desugared = ast.Assign(
                expr.lhs, ast.BinOp(expr.op, expr.lhs, expr.rhs, expr.loc),
                None, expr.loc)
            desugared.lhs.type = expr.lhs.type
            self._lower_assignment(desugared)
            return
        lhs_type = expr.lhs.type
        assert lhs_type is not None
        if lhs_type.is_struct:
            self._lower_struct_assign(expr.lhs, expr.rhs)
            return
        access = self._resolve_access(expr.lhs)
        if access[0] == "var":
            self._lower_assign_to_var(access[1], expr.rhs)
            return
        operand = self._lower_value(expr.rhs)
        self._emit(s.AssignStmt(self._access_to_lvalue(access),
                                s.OperandRhs(operand)))

    def _access_to_lvalue(self, access) -> s.LValue:
        kind = access[0]
        if kind == "var":
            return s.VarLV(access[1])
        if kind == "field":
            return s.FieldWriteLV(access[1], access[2], access[3])
        if kind == "deref":
            return s.DerefWriteLV(access[1], access[2])
        if kind == "index":
            return s.IndexWriteLV(access[1], access[2], access[3])
        if kind == "localfield":
            return s.StructFieldWriteLV(access[1], access[2])
        raise SimplifyError(f"not an lvalue access: {access!r}")

    def _lower_assign_to_var(self, var_name: str, rhs: ast.Expr) -> None:
        """Lower ``var = rhs`` trying to fuse the rhs into one statement."""
        var_type = self._var_type(var_name)
        if var_type.is_struct:
            self._lower_struct_assign_to(("local", var_name, 0,
                                          var_type), rhs)
            return
        rhs_ir = self._lower_rhs(rhs)
        self._emit(s.AssignStmt(s.VarLV(var_name), rhs_ir))

    def _lower_incdec(self, expr: ast.IncDec) -> None:
        delta = ast.IntLit(1, expr.loc)
        op = "+" if expr.op == "++" else "-"
        assign = ast.Assign(expr.operand,
                            ast.BinOp(op, expr.operand, delta, expr.loc),
                            None, expr.loc)
        assign.lhs.type = expr.operand.type
        self._lower_assignment(assign)

    # -- struct (blkmov) assignments ----------------------------------------------------

    def _struct_endpoint(self, expr: ast.Expr):
        """Resolve a struct-typed expression to a blkmov endpoint
        ``(kind, var, offset_words, struct_type)``."""
        access = self._resolve_access(expr)
        kind = access[0]
        if kind == "var":
            var_type = self._var_type(access[1])
            if not var_type.is_struct:
                raise SimplifyError(
                    f"{access[1]!r} is not a struct variable")
            return ("local", access[1], 0, var_type)
        if kind == "localfield":
            struct_var, path, field_type = access[1], access[2], access[3]
            base_type = self._var_type(struct_var)
            offset, _ = path.resolve(base_type)  # type: ignore[arg-type]
            return ("local", struct_var, offset, field_type)
        if kind == "deref":
            ptr, remote, pointee = access[1], access[2], access[3]
            return ("ptr", ptr, 0, pointee)
        if kind == "field":
            base, path, remote, field_type = (access[1], access[2],
                                              access[3], access[4])
            ptr_type = self._var_type(base)
            offset, _ = path.resolve(ptr_type.target)  # type: ignore[union-attr]
            return ("ptr", base, offset, field_type)
        raise SimplifyError(f"cannot take struct endpoint of {expr!r}")

    def _lower_struct_assign(self, lhs: ast.Expr, rhs: ast.Expr) -> None:
        dst = self._struct_endpoint(lhs)
        self._lower_struct_assign_to(dst, rhs)

    def _lower_struct_assign_to(self, dst, rhs: ast.Expr) -> None:
        src = self._struct_endpoint(rhs)
        if src[3] != dst[3]:
            raise SimplifyError(
                f"struct assignment between different types "
                f"{src[3]} and {dst[3]}")
        words = src[3].size_words()
        if src[0] == "ptr" and dst[0] == "ptr":
            # Remote-to-remote would be two remote ops in one statement;
            # stage through a local buffer to keep the SIMPLE invariant.
            assert self._func is not None
            buffer = self._func.fresh_bcomm(src[3])
            self._emit(s.BlkmovStmt((src[0], src[1], src[2]),
                                    ("local", buffer, 0), words))
            self._emit(s.BlkmovStmt(("local", buffer, 0),
                                    (dst[0], dst[1], dst[2]), words))
            return
        self._emit(s.BlkmovStmt((src[0], src[1], src[2]),
                                (dst[0], dst[1], dst[2]), words))

    # -- expressions ---------------------------------------------------------------------

    def _lower_rhs(self, expr: ast.Expr) -> s.Rhs:
        """Lower ``expr`` so its *last* step becomes a single Rhs (fusing
        one operation or one remote read into the assignment)."""
        if isinstance(expr, ast.BinOp) and expr.op not in ("&&", "||"):
            left = self._lower_value(expr.left)
            right = self._lower_value(expr.right)
            return self._scaled_binary(expr, left, right)
        if isinstance(expr, ast.UnOp) and expr.op != "+":
            operand = self._lower_value(expr.operand)
            return s.UnaryRhs(expr.op, operand)
        if isinstance(expr, ast.UnOp):  # unary plus
            return s.OperandRhs(self._lower_value(expr.operand))
        if isinstance(expr, ast.Cast):
            operand = self._lower_value(expr.operand)
            if expr.target_type.is_numeric and not expr.target_type.is_void:
                return s.ConvertRhs(expr.target_type.kind, operand)  # type: ignore[attr-defined]
            return s.OperandRhs(operand)
        if isinstance(expr, ast.AddrOf):
            return self._lower_addr_of(expr)
        if isinstance(expr, (ast.VarRef, ast.Deref, ast.FieldAccess,
                             ast.Index)):
            access = self._resolve_access(expr)
            return self._access_to_rhs(access)
        # Calls, literals, ternaries, short-circuits: evaluate to operand.
        operand = self._lower_value(expr)
        return s.OperandRhs(operand)

    def _scaled_binary(self, expr: ast.BinOp, left: s.Operand,
                       right: s.Operand) -> s.Rhs:
        """Pointer arithmetic scales the integer side by the element
        size in words; everything else is a plain binary rhs."""
        left_type = expr.left.type
        right_type = expr.right.type
        if expr.op in ("+", "-") and left_type is not None \
                and left_type.is_pointer and right_type is not None \
                and right_type.is_integral:
            elem_words = left_type.target.size_words()  # type: ignore[union-attr]
            if elem_words != 1:
                scaled = self._temp(INT)
                self._emit(s.AssignStmt(
                    s.VarLV(scaled),
                    s.BinaryRhs("*", right, s.Const(elem_words))))
                right = s.VarUse(scaled)
        elif expr.op == "+" and right_type is not None \
                and right_type.is_pointer and left_type is not None \
                and left_type.is_integral:
            elem_words = right_type.target.size_words()  # type: ignore[union-attr]
            if elem_words != 1:
                scaled = self._temp(INT)
                self._emit(s.AssignStmt(
                    s.VarLV(scaled),
                    s.BinaryRhs("*", left, s.Const(elem_words))))
                left = s.VarUse(scaled)
        return s.BinaryRhs(expr.op, left, right)

    def _access_to_rhs(self, access) -> s.Rhs:
        kind = access[0]
        if kind == "var":
            return s.OperandRhs(s.VarUse(access[1]))
        if kind == "field":
            if access[4].is_struct:
                raise SimplifyError(
                    "struct-valued field used in scalar context")
            return s.FieldReadRhs(access[1], access[2], access[3])
        if kind == "deref":
            if access[3].is_struct:
                raise SimplifyError("struct deref used in scalar context")
            return s.DerefReadRhs(access[1], access[2])
        if kind == "index":
            if access[4].is_struct:
                raise SimplifyError("struct element used in scalar context")
            return s.IndexReadRhs(access[1], access[2], access[3])
        if kind == "localfield":
            if access[3].is_struct:
                raise SimplifyError(
                    "struct-valued field used in scalar context")
            return s.StructFieldReadRhs(access[1], access[2])
        raise SimplifyError(f"bad access {access!r}")  # pragma: no cover

    def _expr_result_type(self, expr: ast.Expr) -> Type:
        if expr.type is not None:
            return expr.type
        return INT

    def _lower_value(self, expr: ast.Expr) -> s.Operand:
        """Lower ``expr`` fully to a :class:`Const` or :class:`VarUse`."""
        value = _const_value(expr)
        if value is not None:
            return s.Const(value)
        if isinstance(expr, ast.VarRef):
            return s.VarUse(self._resolve_name(expr.name))
        if isinstance(expr, ast.SizeOf):
            return s.Const(expr.target_type.size_words())
        if isinstance(expr, ast.Call):
            operand = self._lower_call(expr, want_value=True)
            assert operand is not None
            return operand
        if isinstance(expr, ast.CondExpr):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.BinOp) and expr.op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        if isinstance(expr, (ast.Assign, ast.IncDec)):
            # Lowering it would have to decide whether `(p->f = v)`
            # re-reads a remote field.
            what = "an assignment" if isinstance(expr, ast.Assign) \
                else f"`{expr.op}`"
            raise SimplifyError(
                f"{expr.loc}: {what} used as a value is not supported; "
                f"make it a statement of its own")
        rhs = self._lower_rhs(expr)
        if isinstance(rhs, s.OperandRhs):
            return rhs.operand
        temp = self._temp(self._expr_result_type(expr))
        self._emit(s.AssignStmt(s.VarLV(temp), rhs))
        return s.VarUse(temp)

    def _lower_addr_of(self, expr: ast.AddrOf) -> s.Rhs:
        operand = expr.operand
        if isinstance(operand, ast.VarRef):
            name = self._resolve_name(operand.name)
            if name in self.simple.globals:
                return s.AddrOfRhs(name)
            raise SimplifyError(
                f"&{operand.name}: taking the address of a stack variable "
                f"is not supported (stack frames are not addressable); "
                f"use a heap object or a global")
        access = self._resolve_access(operand)
        if access[0] == "field":
            return s.FieldAddrRhs(access[1], access[2])
        if access[0] == "deref":
            return s.OperandRhs(s.VarUse(access[1]))  # &*p == p
        raise SimplifyError(f"unsupported address-of: &{operand!r}")

    def _lower_ternary(self, expr: ast.CondExpr) -> s.Operand:
        result = self._temp(self._expr_result_type(expr))
        cond = self._lower_condition(expr.cond)
        then_stmts = self._collect(
            lambda: self._lower_assign_operand(result, expr.then_value))
        else_stmts = self._collect(
            lambda: self._lower_assign_operand(result, expr.else_value))
        self._emit(s.IfStmt(cond, s.SeqStmt(then_stmts),
                            s.SeqStmt(else_stmts)))
        return s.VarUse(result)

    def _lower_assign_operand(self, var_name: str, expr: ast.Expr) -> None:
        rhs = self._lower_rhs(expr)
        self._emit(s.AssignStmt(s.VarLV(var_name), rhs))

    def _lower_short_circuit(self, expr: ast.BinOp) -> s.Operand:
        result = self._temp(INT)
        if expr.op == "&&":
            self._emit(s.AssignStmt(s.VarLV(result),
                                    s.OperandRhs(s.Const(0))))
            left_cond = self._lower_condition(expr.left)
            def then_part():
                right_cond = self._lower_condition(expr.right)
                inner_then = s.SeqStmt([s.AssignStmt(
                    s.VarLV(result), s.OperandRhs(s.Const(1)))])
                self._emit(s.IfStmt(right_cond, inner_then, s.SeqStmt([])))
            then_stmts = self._collect(then_part)
            self._emit(s.IfStmt(left_cond, s.SeqStmt(then_stmts),
                                s.SeqStmt([])))
        else:  # "||"
            self._emit(s.AssignStmt(s.VarLV(result),
                                    s.OperandRhs(s.Const(1))))
            left_cond = self._lower_condition(expr.left)
            def else_part():
                right_cond = self._lower_condition(expr.right)
                inner_else = s.SeqStmt([s.AssignStmt(
                    s.VarLV(result), s.OperandRhs(s.Const(0)))])
                self._emit(s.IfStmt(right_cond, s.SeqStmt([]), inner_else))
            else_stmts = self._collect(else_part)
            self._emit(s.IfStmt(left_cond, s.SeqStmt([]),
                                s.SeqStmt(else_stmts)))
        return s.VarUse(result)

    def _lower_condition(self, expr: ast.Expr) -> s.CondExpr:
        """Lower a boolean context expression to a SIMPLE condition,
        emitting any needed statements."""
        if isinstance(expr, ast.BinOp) and expr.op in s.CondExpr.REL_OPS:
            left = self._lower_value(expr.left)
            right = self._lower_value(expr.right)
            return s.CondExpr(left, expr.op, right)
        if isinstance(expr, ast.UnOp) and expr.op == "!":
            operand = self._lower_value(expr.operand)
            return s.CondExpr(operand, "==", s.Const(0))
        operand = self._lower_value(expr)
        return s.CondExpr(operand, "!=", s.Const(0))

    # -- calls ------------------------------------------------------------------------------

    def _lower_call(self, expr: ast.Call,
                    want_value: bool) -> Optional[s.Operand]:
        name = expr.name
        if name == "malloc":
            return self._lower_malloc(expr)
        if name == "blkmov":
            self._lower_blkmov_call(expr)
            return None
        if name in ("writeto", "addto", "valueof"):
            return self._lower_shared_op(expr, want_value)
        if name == "printf":
            self._lower_printf(expr)
            return s.Const(0) if want_value else None
        args = [self._lower_value(arg) for arg in expr.args]
        placement = self._lower_placement(expr.placement)
        symbol = expr.func_symbol
        return_type = symbol.type.return_type if symbol is not None else INT
        target: Optional[str] = None
        if want_value:
            if return_type.is_void:
                raise SimplifyError(f"void call {name}() used as a value")
            target = self._temp(return_type)
        self._emit(s.CallStmt(target, name, args, placement))
        return s.VarUse(target) if target is not None else None

    def _lower_placement(self, placement: Optional[ast.Placement]):
        if placement is None:
            return None
        if placement.kind == ast.Placement.KIND_OWNER_OF:
            operand = self._lower_value(placement.expr)
            if not isinstance(operand, s.VarUse):
                raise SimplifyError("OWNER_OF argument must be a pointer")
            return ("owner_of", operand.name)
        if placement.kind == ast.Placement.KIND_HOME:
            return ("home",)
        operand = self._lower_value(placement.expr)
        return ("node", operand)

    def _lower_malloc(self, expr: ast.Call) -> s.Operand:
        words = self._lower_value(expr.args[0])
        struct: Optional[StructType] = None
        if isinstance(expr.args[0], ast.SizeOf):
            target_type = expr.args[0].target_type
            if isinstance(target_type, StructType):
                struct = target_type
        node = None
        if expr.placement is not None:
            if expr.placement.kind != ast.Placement.KIND_NODE:
                raise SimplifyError("malloc placement must be @<node-expr>")
            node = self._lower_value(expr.placement.expr)
        target = self._temp(PointerType(struct if struct is not None
                                        else ScalarType("int")))
        self._emit(s.AllocStmt(target, words, node, self._site(expr.loc),
                               struct))
        return s.VarUse(target)

    def _lower_blkmov_call(self, expr: ast.Call) -> None:
        if len(expr.args) != 3:
            raise SimplifyError("blkmov takes (src, dst, words)")
        src = self._blkmov_endpoint(expr.args[0])
        dst = self._blkmov_endpoint(expr.args[1])
        words = _const_value(expr.args[2])
        if isinstance(expr.args[2], ast.SizeOf):
            words = expr.args[2].target_type.size_words()
        if not isinstance(words, int):
            raise SimplifyError("blkmov size must be a compile-time "
                                "constant (use sizeof)")
        self._emit(s.BlkmovStmt(src, dst, words))

    def _blkmov_endpoint(self, expr: ast.Expr) -> Tuple[str, str, int]:
        if isinstance(expr, ast.VarRef):
            name = self._resolve_name(expr.name)
            if not self._var_type(name).is_pointer:
                raise SimplifyError(
                    f"blkmov endpoint {expr.name!r} must be a pointer or "
                    f"&struct_var")
            return ("ptr", name, 0)
        if isinstance(expr, ast.AddrOf) and \
                isinstance(expr.operand, ast.VarRef):
            name = self._resolve_name(expr.operand.name)
            if not self._var_type(name).is_struct:
                raise SimplifyError(
                    f"blkmov endpoint &{expr.operand.name} must name a "
                    f"struct variable")
            return ("local", name, 0)
        raise SimplifyError(f"unsupported blkmov endpoint {expr!r}")

    def _lower_shared_op(self, expr: ast.Call,
                         want_value: bool) -> Optional[s.Operand]:
        target_arg = expr.args[0]
        if not (isinstance(target_arg, ast.AddrOf)
                and isinstance(target_arg.operand, ast.VarRef)):
            raise SimplifyError(
                f"{expr.name}: first argument must be &shared_variable")
        shared_name = self._resolve_name(target_arg.operand.name)
        if expr.name == "valueof":
            symbol_type = self._var_type(shared_name)
            temp = self._temp(symbol_type)
            self._emit(s.SharedOpStmt("valueof", shared_name, None, temp))
            return s.VarUse(temp)
        value = self._lower_value(expr.args[1])
        self._emit(s.SharedOpStmt(expr.name, shared_name, value, None))
        if want_value:
            raise SimplifyError(f"{expr.name}() has no value")
        return None

    def _lower_printf(self, expr: ast.Call) -> None:
        if not expr.args or not isinstance(expr.args[0], ast.StringLit):
            raise SimplifyError("printf needs a literal format string")
        fmt = expr.args[0].value
        args = [self._lower_value(arg) for arg in expr.args[1:]]
        self._emit(s.PrintStmt(fmt, args))

    # -- access resolution ----------------------------------------------------------------------

    def _resolve_access(self, expr: ast.Expr):
        if isinstance(expr, ast.VarRef):
            return ("var", self._resolve_name(expr.name))
        if isinstance(expr, ast.Deref):
            ptr = self._lower_ptr_var(expr.pointer)
            ptr_type = self._pointer_type(ptr, expr)
            return ("deref", ptr, self._is_remote_ptr(ptr_type),
                    ptr_type.target)
        if isinstance(expr, ast.Index):
            base = self._lower_ptr_var(expr.base)
            index = self._lower_value(expr.index)
            base_type = self._pointer_type(base, expr)
            elem = base_type.target
            if elem.size_words() != 1 and not elem.is_struct:
                # Scale the index for multi-word scalars (double).
                scaled = self._temp(INT)
                self._emit(s.AssignStmt(
                    s.VarLV(scaled),
                    s.BinaryRhs("*", index, s.Const(elem.size_words()))))
                index = s.VarUse(scaled)
            return ("index", base, index, self._is_remote_ptr(base_type),
                    elem)
        if isinstance(expr, ast.FieldAccess):
            return self._resolve_field_access(expr)
        raise SimplifyError(f"not an access expression: {expr!r}")

    def _pointer_type(self, name: str, expr: ast.Expr) -> PointerType:
        """The type of the variable ``expr`` dereferences or indexes.
        The type checker decays an array variable to a pointer; SIMPLE
        has no addressable array variables to decay."""
        var_type = self._var_type(name)
        if not isinstance(var_type, PointerType):
            raise SimplifyError(
                f"{expr.loc}: {name!r} is declared {var_type}, and only "
                f"a pointer can be indexed or dereferenced (array "
                f"variables are not supported; use a heap object)")
        return var_type

    def _resolve_field_access(self, expr: ast.FieldAccess):
        if expr.arrow:
            ptr = self._lower_ptr_var(expr.base)
            ptr_type = self._pointer_type(ptr, expr)
            struct = ptr_type.target
            assert isinstance(struct, StructType)
            path = FieldPath.single(expr.field)
            _, field_type = path.resolve(struct)
            return ("field", ptr, path, self._is_remote_ptr(ptr_type),
                    field_type)
        base_access = self._resolve_access(expr.base)
        kind = base_access[0]
        if kind == "var":
            struct_var = base_access[1]
            struct_type = self._var_type(struct_var)
            if not isinstance(struct_type, StructType):
                raise SimplifyError(
                    f"field {expr.field!r} on non-struct {struct_var!r}")
            path = FieldPath.single(expr.field)
            _, field_type = path.resolve(struct_type)
            return ("localfield", struct_var, path, field_type)
        if kind == "localfield":
            struct_var, path = base_access[1], base_access[2]
            new_path = path.extend(expr.field)
            struct_type = self._var_type(struct_var)
            _, field_type = new_path.resolve(struct_type)  # type: ignore[arg-type]
            return ("localfield", struct_var, new_path, field_type)
        if kind == "field":
            base, path, remote = (base_access[1], base_access[2],
                                  base_access[3])
            new_path = path.extend(expr.field)
            ptr_type = self._var_type(base)
            _, field_type = new_path.resolve(ptr_type.target)  # type: ignore[union-attr]
            return ("field", base, new_path, remote, field_type)
        if kind == "deref":
            ptr, remote, pointee = (base_access[1], base_access[2],
                                    base_access[3])
            if not isinstance(pointee, StructType):
                raise SimplifyError(
                    f"field {expr.field!r} on non-struct dereference")
            path = FieldPath.single(expr.field)
            _, field_type = path.resolve(pointee)
            return ("field", ptr, path, remote, field_type)
        raise SimplifyError(
            f"unsupported field access base: {base_access!r}")

    def _lower_ptr_var(self, expr: ast.Expr) -> str:
        """Lower an expression of pointer type to a variable name."""
        operand = self._lower_value(expr)
        if isinstance(operand, s.VarUse):
            return operand.name
        # A constant pointer (NULL) being dereferenced: give it a home so
        # later phases have a variable to talk about.
        expr_type = expr.type if expr.type is not None else \
            PointerType(ScalarType("int"))
        temp = self._temp(expr_type)
        self._emit(s.AssignStmt(s.VarLV(temp), s.OperandRhs(operand)))
        return temp


def _const_value(expr: ast.Expr) -> Optional[Union[int, float]]:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.CharLit):
        return ord(expr.value)
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        inner = _const_value(expr.operand)
        if inner is not None:
            return -inner
    if isinstance(expr, ast.SizeOf):
        return expr.target_type.size_words()
    return None


def simplify_program(program: ast.Program,
                     symbols: ProgramSymbols) -> s.SimpleProgram:
    """Lower a type-checked AST program to SIMPLE form."""
    return Simplifier(program, symbols).run()
