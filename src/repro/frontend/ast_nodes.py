"""Abstract syntax tree for the EARTH-C dialect.

The dialect is the C subset used by the paper's benchmarks plus the
EARTH-C extensions described in its Section 2.1:

* ``forall`` loops (iterations may run in parallel),
* parallel statement sequences ``{^ stmt; ... ^}``,
* ``shared`` variables accessed through the atomic built-ins
  ``writeto`` / ``addto`` / ``valueof``,
* ``local`` pointer qualifiers,
* call placement annotations ``f(args)@OWNER_OF(p)``, ``f(args)@HOME``
  and ``f(args)@expr`` (an explicit node number).

Expression nodes carry a ``type`` attribute filled in by the type checker
(:mod:`repro.frontend.typecheck`); it is ``None`` until then.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import SourceLocation
from repro.frontend.types import Type


class Node:
    """Base class of all AST nodes."""

    __slots__ = ("loc",)

    def __init__(self, loc: Optional[SourceLocation] = None):
        self.loc = loc or SourceLocation()

    def children(self) -> Sequence["Node"]:
        """Direct child nodes, used by generic walkers."""
        return ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ("type",)

    def __init__(self, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.type: Optional[Type] = None


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def __repr__(self) -> str:
        return f"IntLit({self.value})"


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def __repr__(self) -> str:
        return f"FloatLit({self.value})"


class CharLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def __repr__(self) -> str:
        return f"CharLit({self.value!r})"


class StringLit(Expr):
    """Only used as a ``printf`` format argument."""

    __slots__ = ("value",)

    def __init__(self, value: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def __repr__(self) -> str:
        return f"StringLit({self.value!r})"


class VarRef(Expr):
    """A variable reference.  ``symbol`` is resolved by the type checker."""

    __slots__ = ("name", "symbol")

    def __init__(self, name: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name
        self.symbol = None

    def __repr__(self) -> str:
        return f"VarRef({self.name!r})"


class BinOp(Expr):
    """A binary operation.  ``op`` is the C operator spelling."""

    __slots__ = ("op", "left", "right")

    OPS = {
        "+", "-", "*", "/", "%",
        "<", "<=", ">", ">=", "==", "!=",
        "&&", "||", "&", "|", "^", "<<", ">>",
    }

    def __init__(self, op: str, left: Expr, right: Expr,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        assert op in self.OPS, op
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Node]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"


class UnOp(Expr):
    __slots__ = ("op", "operand")

    OPS = {"-", "!", "~", "+"}

    def __init__(self, op: str, operand: Expr,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        assert op in self.OPS, op
        self.op = op
        self.operand = operand

    def children(self) -> Sequence[Node]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnOp({self.op!r}, {self.operand!r})"


class Deref(Expr):
    """``*p``"""

    __slots__ = ("pointer",)

    def __init__(self, pointer: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.pointer = pointer

    def children(self) -> Sequence[Node]:
        return (self.pointer,)

    def __repr__(self) -> str:
        return f"Deref({self.pointer!r})"


class AddrOf(Expr):
    """``&lvalue``"""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.operand = operand

    def children(self) -> Sequence[Node]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"AddrOf({self.operand!r})"


class FieldAccess(Expr):
    """``base.field`` (``arrow=False``) or ``base->field`` (``arrow=True``)."""

    __slots__ = ("base", "field", "arrow")

    def __init__(self, base: Expr, field: str, arrow: bool,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.base = base
        self.field = field
        self.arrow = arrow

    def children(self) -> Sequence[Node]:
        return (self.base,)

    def __repr__(self) -> str:
        sep = "->" if self.arrow else "."
        return f"FieldAccess({self.base!r}{sep}{self.field})"


class Index(Expr):
    """``base[index]``"""

    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.base = base
        self.index = index

    def children(self) -> Sequence[Node]:
        return (self.base, self.index)

    def __repr__(self) -> str:
        return f"Index({self.base!r}, {self.index!r})"


class SizeOf(Expr):
    __slots__ = ("target_type",)

    def __init__(self, target_type: Type, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.target_type = target_type

    def __repr__(self) -> str:
        return f"SizeOf({self.target_type})"


class Cast(Expr):
    __slots__ = ("target_type", "operand")

    def __init__(self, target_type: Type, operand: Expr,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.target_type = target_type
        self.operand = operand

    def children(self) -> Sequence[Node]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"Cast({self.target_type}, {self.operand!r})"


class CondExpr(Expr):
    """The ternary ``c ? t : f``."""

    __slots__ = ("cond", "then_value", "else_value")

    def __init__(self, cond: Expr, then_value: Expr, else_value: Expr,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.cond = cond
        self.then_value = then_value
        self.else_value = else_value

    def children(self) -> Sequence[Node]:
        return (self.cond, self.then_value, self.else_value)

    def __repr__(self) -> str:
        return (f"CondExpr({self.cond!r}, {self.then_value!r}, "
                f"{self.else_value!r})")


class Assign(Expr):
    """``lhs = rhs`` or a compound assignment when ``op`` is e.g. ``"+"``."""

    __slots__ = ("lhs", "rhs", "op")

    def __init__(self, lhs: Expr, rhs: Expr, op: Optional[str] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.lhs = lhs
        self.rhs = rhs
        self.op = op

    def children(self) -> Sequence[Node]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        op = (self.op or "") + "="
        return f"Assign({self.lhs!r} {op} {self.rhs!r})"


class IncDec(Expr):
    """``lvalue++`` / ``lvalue--`` / ``++lvalue`` / ``--lvalue``.

    Only used in statement position and for-loop steps; the simplifier
    rejects value uses, matching the benchmarks' usage.
    """

    __slots__ = ("operand", "op", "is_prefix")

    def __init__(self, operand: Expr, op: str, is_prefix: bool,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        assert op in ("++", "--")
        self.operand = operand
        self.op = op
        self.is_prefix = is_prefix

    def children(self) -> Sequence[Node]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"IncDec({self.op}, {self.operand!r}, prefix={self.is_prefix})"


class Placement(Node):
    """A call placement annotation after ``@``."""

    KIND_OWNER_OF = "owner_of"
    KIND_HOME = "home"
    KIND_NODE = "node"

    __slots__ = ("kind", "expr")

    def __init__(self, kind: str, expr: Optional[Expr] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        assert kind in (self.KIND_OWNER_OF, self.KIND_HOME, self.KIND_NODE)
        self.kind = kind
        self.expr = expr

    def children(self) -> Sequence[Node]:
        return (self.expr,) if self.expr is not None else ()

    def __repr__(self) -> str:
        return f"Placement({self.kind}, {self.expr!r})"


class Call(Expr):
    """``name(args)`` with an optional placement annotation."""

    __slots__ = ("name", "args", "placement", "func_symbol")

    def __init__(self, name: str, args: List[Expr],
                 placement: Optional[Placement] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name
        self.args = list(args)
        self.placement = placement
        self.func_symbol = None

    def children(self) -> Sequence[Node]:
        kids: List[Node] = list(self.args)
        if self.placement is not None:
            kids.append(self.placement)
        return kids

    def __repr__(self) -> str:
        return f"Call({self.name!r}, {self.args!r}, @{self.placement!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class VarDecl(Stmt):
    """A local variable declaration, optionally initialized."""

    __slots__ = ("name", "var_type", "is_shared", "init")

    def __init__(self, name: str, var_type: Type, is_shared: bool = False,
                 init: Optional[Expr] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name
        self.var_type = var_type
        self.is_shared = is_shared
        self.init = init

    def children(self) -> Sequence[Node]:
        return (self.init,) if self.init is not None else ()

    def __repr__(self) -> str:
        shared = "shared " if self.is_shared else ""
        return f"VarDecl({shared}{self.var_type} {self.name}, init={self.init!r})"


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.expr = expr

    def children(self) -> Sequence[Node]:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"ExprStmt({self.expr!r})"


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: List[Stmt], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.stmts = list(stmts)

    def children(self) -> Sequence[Node]:
        return tuple(self.stmts)

    def __repr__(self) -> str:
        return f"Block({len(self.stmts)} stmts)"


class ParallelSeq(Stmt):
    """``{^ stmt; ... ^}`` -- statements that may execute concurrently."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: List[Stmt], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.stmts = list(stmts)

    def children(self) -> Sequence[Node]:
        return tuple(self.stmts)

    def __repr__(self) -> str:
        return f"ParallelSeq({len(self.stmts)} stmts)"


class If(Stmt):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: Expr, then_body: Stmt,
                 else_body: Optional[Stmt] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body

    def children(self) -> Sequence[Node]:
        kids: List[Node] = [self.cond, self.then_body]
        if self.else_body is not None:
            kids.append(self.else_body)
        return kids

    def __repr__(self) -> str:
        return f"If({self.cond!r})"


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.cond = cond
        self.body = body

    def children(self) -> Sequence[Node]:
        return (self.cond, self.body)

    def __repr__(self) -> str:
        return f"While({self.cond!r})"


class DoWhile(Stmt):
    __slots__ = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.body = body
        self.cond = cond

    def children(self) -> Sequence[Node]:
        return (self.body, self.cond)

    def __repr__(self) -> str:
        return f"DoWhile({self.cond!r})"


class For(Stmt):
    __slots__ = ("init", "cond", "step", "body", "is_forall")

    def __init__(self, init: Optional[Expr], cond: Optional[Expr],
                 step: Optional[Expr], body: Stmt, is_forall: bool = False,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body
        self.is_forall = is_forall

    def children(self) -> Sequence[Node]:
        kids: List[Node] = []
        for part in (self.init, self.cond, self.step):
            if part is not None:
                kids.append(part)
        kids.append(self.body)
        return kids

    def __repr__(self) -> str:
        kw = "Forall" if self.is_forall else "For"
        return f"{kw}({self.init!r}; {self.cond!r}; {self.step!r})"


class SwitchCase:
    """One ``case value: stmts`` arm (``value is None`` for ``default``)."""

    __slots__ = ("value", "stmts")

    def __init__(self, value: Optional[int], stmts: List[Stmt]):
        self.value = value
        self.stmts = list(stmts)

    def __repr__(self) -> str:
        label = "default" if self.value is None else f"case {self.value}"
        return f"SwitchCase({label}, {len(self.stmts)} stmts)"


class Switch(Stmt):
    """A ``switch`` whose arms each end in ``break`` (enforced by the
    parser; fallthrough is rejected, matching the benchmark subset)."""

    __slots__ = ("scrutinee", "cases")

    def __init__(self, scrutinee: Expr, cases: List[SwitchCase],
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.scrutinee = scrutinee
        self.cases = list(cases)

    def children(self) -> Sequence[Node]:
        kids: List[Node] = [self.scrutinee]
        for case in self.cases:
            kids.extend(case.stmts)
        return kids

    def __repr__(self) -> str:
        return f"Switch({self.scrutinee!r}, {len(self.cases)} cases)"


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def children(self) -> Sequence[Node]:
        return (self.value,) if self.value is not None else ()

    def __repr__(self) -> str:
        return f"Return({self.value!r})"


class Break(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Break()"


class Continue(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Continue()"


class Goto(Stmt):
    __slots__ = ("label",)

    def __init__(self, label: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.label = label

    def __repr__(self) -> str:
        return f"Goto({self.label!r})"


class Labeled(Stmt):
    __slots__ = ("label", "stmt")

    def __init__(self, label: str, stmt: Stmt,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.label = label
        self.stmt = stmt

    def children(self) -> Sequence[Node]:
        return (self.stmt,)

    def __repr__(self) -> str:
        return f"Labeled({self.label!r}, {self.stmt!r})"


class EmptyStmt(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "EmptyStmt()"


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


class Param:
    """A function parameter.  ``is_local`` mirrors the ``local`` pointer
    qualifier on the parameter's declaration."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: Type):
        self.name = name
        self.type = type

    def __repr__(self) -> str:
        return f"Param({self.type} {self.name})"


class FunctionDecl(Node):
    __slots__ = ("name", "return_type", "params", "body")

    def __init__(self, name: str, return_type: Type, params: List[Param],
                 body: Block, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name
        self.return_type = return_type
        self.params = list(params)
        self.body = body

    def children(self) -> Sequence[Node]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"FunctionDecl({self.name!r}, {len(self.params)} params)"


class GlobalVarDecl(Node):
    __slots__ = ("name", "var_type", "is_shared", "init")

    def __init__(self, name: str, var_type: Type, is_shared: bool = False,
                 init: Optional[Expr] = None,
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name
        self.var_type = var_type
        self.is_shared = is_shared
        self.init = init

    def __repr__(self) -> str:
        shared = "shared " if self.is_shared else ""
        return f"GlobalVarDecl({shared}{self.var_type} {self.name})"


class Program(Node):
    """A whole EARTH-C translation unit."""

    __slots__ = ("structs", "globals", "functions")

    def __init__(self, structs: List["Type"], globals: List[GlobalVarDecl],
                 functions: List[FunctionDecl],
                 loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.structs = list(structs)
        self.globals = list(globals)
        self.functions = list(functions)

    def children(self) -> Sequence[Node]:
        return tuple(self.globals) + tuple(self.functions)

    def function(self, name: str) -> FunctionDecl:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def __repr__(self) -> str:
        return (f"Program({len(self.structs)} structs, "
                f"{len(self.globals)} globals, "
                f"{len(self.functions)} functions)")


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants in preorder, in one frame."""
    stack: List[Node] = [node]
    while stack:
        node = stack.pop()
        yield node  # its children are read once it has been yielded
        stack.extend(reversed(node.children()))
