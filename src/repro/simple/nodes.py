"""The SIMPLE intermediate representation.

SIMPLE (Sridharan '92, used throughout the McCAT compiler and by the
paper) is a *compositional* three-address representation:

* **basic statements** -- assignments, calls, returns, block moves,
  shared-variable atomic operations -- each with **at most one remote
  operation** (one remote read or one remote write);
* **compound statements** -- sequences, ``if``/``switch``, ``while``/``do``
  loops, plus the EARTH parallel constructs (parallel sequences and
  ``forall`` loops), containing other statements;
* structured control flow only (``goto`` has been eliminated upstream).

Every statement carries a unique integer ``label``; the paper's
communication tuples record the labels of the basic statements they came
from (the ``Dlist``).

Operands of basic statements are variables or constants; anything more
complex has been split by the simplifier (:mod:`repro.frontend.simplify`).
Remote-capable accesses (``p->f``, ``*p``, ``p[i]`` through a non-``local``
pointer) carry a ``remote`` flag which locality analysis may clear.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.frontend.types import FieldPath, StructType, Type

# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


class Operand:
    """A leaf value: constant or variable use."""

    __slots__ = ()

    def variables(self) -> Tuple[str, ...]:
        return ()


class Const(Operand):
    """An integer/float/char constant (NULL is ``Const(0)``)."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float]):
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value \
            and type(other.value) is type(self.value)

    def __hash__(self) -> int:
        return hash(("const", self.value))


class VarUse(Operand):
    """A read of a scalar/pointer variable (local, parameter or global)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def variables(self) -> Tuple[str, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return f"VarUse({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarUse) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("varuse", self.name))


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


class Rhs:
    """Base class of assignment right-hand sides."""

    __slots__ = ()

    #: Does evaluating this rhs perform a (potentially) remote read?
    def remote_read(self) -> Optional["RemoteAccess"]:
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return ()


class RemoteAccess:
    """Description of one potentially-remote access: the base pointer
    variable and the field path (``None`` for ``*p`` scalar access)."""

    __slots__ = ("base", "path")

    def __init__(self, base: str, path: Optional[FieldPath]):
        self.base = base
        self.path = path

    def key(self) -> Tuple[str, Optional[Tuple[str, ...]]]:
        return (self.base, self.path.names if self.path else None)

    def __repr__(self) -> str:
        if self.path is None:
            return f"RemoteAccess(*{self.base})"
        return f"RemoteAccess({self.base}->{self.path})"


class OperandRhs(Rhs):
    """``x = y`` / ``x = 3``"""

    __slots__ = ("operand",)

    def __init__(self, operand: Operand):
        self.operand = operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"OperandRhs({self.operand!r})"


class UnaryRhs(Rhs):
    """``x = -y`` and friends (``-``, ``!``, ``~``)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Operand):
        self.op = op
        self.operand = operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnaryRhs({self.op!r}, {self.operand!r})"


class BinaryRhs(Rhs):
    """``x = y op z``"""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Operand, right: Operand):
        self.op = op
        self.left = left
        self.right = right

    def operands(self) -> Tuple[Operand, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinaryRhs({self.op!r}, {self.left!r}, {self.right!r})"


class ConvertRhs(Rhs):
    """``x = (kind) y`` -- numeric conversion inserted by the simplifier."""

    __slots__ = ("kind", "operand")

    def __init__(self, kind: str, operand: Operand):
        self.kind = kind
        self.operand = operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"ConvertRhs({self.kind!r}, {self.operand!r})"


class AddrOfRhs(Rhs):
    """``x = &v`` where ``v`` is a local/global variable (including local
    struct variables used as blkmov buffers)."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        self.var = var

    def __repr__(self) -> str:
        return f"AddrOfRhs({self.var!r})"


class FieldAddrRhs(Rhs):
    """``x = &(p->f)`` -- address of a field of a pointed-to struct."""

    __slots__ = ("base", "path")

    def __init__(self, base: str, path: FieldPath):
        self.base = base
        self.path = path

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base),)

    def __repr__(self) -> str:
        return f"FieldAddrRhs(&{self.base}->{self.path})"


class FieldReadRhs(Rhs):
    """``x = p->f`` (or nested ``p->f.g``); remote when ``remote`` is set."""

    __slots__ = ("base", "path", "remote")

    def __init__(self, base: str, path: FieldPath, remote: bool):
        self.base = base
        self.path = path
        self.remote = remote

    def remote_read(self) -> Optional[RemoteAccess]:
        if self.remote:
            return RemoteAccess(self.base, self.path)
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base),)

    def __repr__(self) -> str:
        tag = "remote" if self.remote else "local"
        return f"FieldReadRhs({self.base}->{self.path} [{tag}])"


class DerefReadRhs(Rhs):
    """``x = *p`` for a scalar pointee."""

    __slots__ = ("base", "remote")

    def __init__(self, base: str, remote: bool):
        self.base = base
        self.remote = remote

    def remote_read(self) -> Optional[RemoteAccess]:
        if self.remote:
            return RemoteAccess(self.base, None)
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base),)

    def __repr__(self) -> str:
        tag = "remote" if self.remote else "local"
        return f"DerefReadRhs(*{self.base} [{tag}])"


class IndexReadRhs(Rhs):
    """``x = p[i]`` for a scalar element type."""

    __slots__ = ("base", "index", "remote")

    def __init__(self, base: str, index: Operand, remote: bool):
        self.base = base
        self.index = index
        self.remote = remote

    def remote_read(self) -> Optional[RemoteAccess]:
        if self.remote:
            return RemoteAccess(self.base, None)
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base), self.index)

    def __repr__(self) -> str:
        tag = "remote" if self.remote else "local"
        return f"IndexReadRhs({self.base}[{self.index}] [{tag}])"


class StructFieldReadRhs(Rhs):
    """``x = s.f`` where ``s`` is a *local struct variable* (e.g. a
    ``bcomm`` blkmov buffer).  Always a local access."""

    __slots__ = ("struct_var", "path")

    def __init__(self, struct_var: str, path: FieldPath):
        self.struct_var = struct_var
        self.path = path

    def __repr__(self) -> str:
        return f"StructFieldReadRhs({self.struct_var}.{self.path})"


# ---------------------------------------------------------------------------
# Left-hand sides
# ---------------------------------------------------------------------------


class LValue:
    __slots__ = ()

    def remote_write(self) -> Optional[RemoteAccess]:
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return ()


class VarLV(LValue):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"VarLV({self.name!r})"


class FieldWriteLV(LValue):
    """``p->f = ...``"""

    __slots__ = ("base", "path", "remote")

    def __init__(self, base: str, path: FieldPath, remote: bool):
        self.base = base
        self.path = path
        self.remote = remote

    def remote_write(self) -> Optional[RemoteAccess]:
        if self.remote:
            return RemoteAccess(self.base, self.path)
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base),)

    def __repr__(self) -> str:
        tag = "remote" if self.remote else "local"
        return f"FieldWriteLV({self.base}->{self.path} [{tag}])"


class DerefWriteLV(LValue):
    """``*p = ...``"""

    __slots__ = ("base", "remote")

    def __init__(self, base: str, remote: bool):
        self.base = base
        self.remote = remote

    def remote_write(self) -> Optional[RemoteAccess]:
        if self.remote:
            return RemoteAccess(self.base, None)
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base),)

    def __repr__(self) -> str:
        tag = "remote" if self.remote else "local"
        return f"DerefWriteLV(*{self.base} [{tag}])"


class IndexWriteLV(LValue):
    """``p[i] = ...``"""

    __slots__ = ("base", "index", "remote")

    def __init__(self, base: str, index: Operand, remote: bool):
        self.base = base
        self.index = index
        self.remote = remote

    def remote_write(self) -> Optional[RemoteAccess]:
        if self.remote:
            return RemoteAccess(self.base, None)
        return None

    def operands(self) -> Tuple[Operand, ...]:
        return (VarUse(self.base), self.index)

    def __repr__(self) -> str:
        tag = "remote" if self.remote else "local"
        return f"IndexWriteLV({self.base}[{self.index}] [{tag}])"


class StructFieldWriteLV(LValue):
    """``s.f = ...`` into a local struct variable."""

    __slots__ = ("struct_var", "path")

    def __init__(self, struct_var: str, path: FieldPath):
        self.struct_var = struct_var
        self.path = path

    def __repr__(self) -> str:
        return f"StructFieldWriteLV({self.struct_var}.{self.path})"


# ---------------------------------------------------------------------------
# Conditions (for if/while/do/switch)
# ---------------------------------------------------------------------------


class CondExpr:
    """A SIMPLE condition: one operand, or ``left relop right``.

    Conditions never contain remote accesses; the simplifier hoists those
    into basic statements.
    """

    __slots__ = ("op", "left", "right")

    REL_OPS = {"<", "<=", ">", ">=", "==", "!="}

    def __init__(self, left: Operand, op: Optional[str] = None,
                 right: Optional[Operand] = None):
        assert (op is None) == (right is None)
        assert op is None or op in self.REL_OPS
        self.left = left
        self.op = op
        self.right = right

    def operands(self) -> Tuple[Operand, ...]:
        if self.right is None:
            return (self.left,)
        return (self.left, self.right)

    def variables(self) -> Tuple[str, ...]:
        names: List[str] = []
        for operand in self.operands():
            names.extend(operand.variables())
        return tuple(names)

    def __repr__(self) -> str:
        if self.op is None:
            return f"CondExpr({self.left!r})"
        return f"CondExpr({self.left!r} {self.op} {self.right!r})"

    def __str__(self) -> str:
        if self.op is None:
            return str(self.left)
        return f"{self.left} {self.op} {self.right}"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

#: Labels need only be unique within one program.  Inside a
#: :func:`label_scope` (one per compilation) they count from 1, so a
#: program's listing and everything derived from it is a function of
#: its source alone; outside one, this process-wide counter serves.
_process_labels = itertools.count(1)
_scoped_labels: "contextvars.ContextVar[Optional[Iterator[int]]]" = \
    contextvars.ContextVar("scoped_labels", default=None)


def fresh_label() -> int:
    """A statement label unique within the program being built."""
    return next(_scoped_labels.get() or _process_labels)


@contextlib.contextmanager
def label_scope():
    """Number the statements created inside the ``with`` block from 1."""
    global _process_labels
    labels = itertools.count(1)
    token = _scoped_labels.set(labels)
    try:
        yield
    finally:
        _scoped_labels.reset(token)
        # Keep the process-wide counter ahead of every scope: a
        # statement added to this program later, from outside the
        # scope, must not repeat one of its labels.
        _process_labels = itertools.count(
            max(next(_process_labels), next(labels)))


class Stmt:
    """Base class of all SIMPLE statements."""

    __slots__ = ("label",)

    def __init__(self):
        self.label = fresh_label()

    def children(self) -> Sequence["Stmt"]:
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """This statement and all descendants, preorder, in one frame."""
        stack: List[Stmt] = [self]
        while stack:
            stmt = stack.pop()
            yield stmt  # its children are read once it has been yielded
            if not isinstance(stmt, BasicStmt):
                stack.extend(reversed(stmt.children()))

    def basic_stmts(self) -> Iterator["BasicStmt"]:
        for stmt in self.walk():
            if isinstance(stmt, BasicStmt):
                yield stmt


class BasicStmt(Stmt):
    """A statement with no statement children.

    Subclasses report their (at most one) potentially-remote access via
    :meth:`remote_read` / :meth:`remote_write`.
    """

    __slots__ = ()

    def remote_read(self) -> Optional[RemoteAccess]:
        return None

    def remote_write(self) -> Optional[RemoteAccess]:
        return None

    @property
    def is_remote(self) -> bool:
        return self.remote_read() is not None or \
            self.remote_write() is not None


class AssignStmt(BasicStmt):
    """``lhs = rhs``.  The simplifier guarantees at most one side is a
    potentially-remote access."""

    __slots__ = ("lhs", "rhs", "split_phase")

    def __init__(self, lhs: LValue, rhs: Rhs, split_phase: bool = False):
        super().__init__()
        self.lhs = lhs
        self.rhs = rhs
        #: Set by communication selection: issue the remote operation
        #: split-phase (sync on first use / at frame end) instead of
        #: synchronously.
        self.split_phase = split_phase

    def remote_read(self) -> Optional[RemoteAccess]:
        return self.rhs.remote_read()

    def remote_write(self) -> Optional[RemoteAccess]:
        return self.lhs.remote_write()

    def __repr__(self) -> str:
        return f"AssignStmt(S{self.label}: {self.lhs!r} = {self.rhs!r})"


class CallStmt(BasicStmt):
    """``target = func(args) @ placement`` (target optional).

    ``placement`` is ``None`` (run locally), ``("owner_of", varname)``,
    ``("node", operand)`` or ``("home",)``.  Built-ins (``sqrt``,
    ``num_nodes``, ...) use this node too; the EARTH-specific memory
    built-ins have dedicated statement classes below.
    """

    __slots__ = ("target", "func", "args", "placement")

    def __init__(self, target: Optional[str], func: str,
                 args: List[Operand],
                 placement: Optional[Tuple] = None):
        super().__init__()
        self.target = target
        self.func = func
        self.args = list(args)
        self.placement = placement

    def __repr__(self) -> str:
        return (f"CallStmt(S{self.label}: {self.target} = "
                f"{self.func}({self.args!r}) @ {self.placement!r})")


class AllocStmt(BasicStmt):
    """``p = malloc(words) [@ node]`` -- heap allocation, optionally on an
    explicit node (the benchmarks' data-distribution mechanism).

    ``site`` identifies the allocation site for heap analysis.
    """

    __slots__ = ("target", "words", "node", "site", "struct")

    def __init__(self, target: str, words: Operand,
                 node: Optional[Operand], site: str,
                 struct: Optional[StructType] = None):
        super().__init__()
        self.target = target
        self.words = words
        self.node = node
        self.site = site
        self.struct = struct

    def __repr__(self) -> str:
        return (f"AllocStmt(S{self.label}: {self.target} = "
                f"malloc({self.words!r}) @ {self.node!r} "
                f"[{self.site}])")


class BlkmovStmt(BasicStmt):
    """``blkmov(src, dst, words)`` -- block transfer between a remote
    struct (addressed by a pointer variable) and a local struct variable,
    or local-to-local (whole-struct assignment), or remote-to-remote.

    Each endpoint is ``("ptr", varname, offset_words)`` (inside the struct
    pointed to by the variable) or ``("local", varname, offset_words)``
    (inside a local struct variable, spelled ``&var`` in the source).
    A nonzero offset selects a nested-struct field (e.g. copying field
    ``D`` of ``bcomm7`` in the paper's power excerpt).
    """

    __slots__ = ("src", "dst", "words", "split_phase")

    def __init__(self, src: Tuple[str, str, int], dst: Tuple[str, str, int],
                 words: int, split_phase: bool = False):
        super().__init__()
        assert src[0] in ("ptr", "local") and dst[0] in ("ptr", "local")
        assert len(src) == 3 and len(dst) == 3
        self.src = src
        self.dst = dst
        self.words = words
        #: See AssignStmt.split_phase.
        self.split_phase = split_phase

    def remote_read(self) -> Optional[RemoteAccess]:
        if self.src[0] == "ptr":
            return RemoteAccess(self.src[1], None)
        return None

    def remote_write(self) -> Optional[RemoteAccess]:
        if self.dst[0] == "ptr":
            return RemoteAccess(self.dst[1], None)
        return None

    def __repr__(self) -> str:
        return (f"BlkmovStmt(S{self.label}: {self.src} -> {self.dst}, "
                f"{self.words} words)")


class SharedOpStmt(BasicStmt):
    """An atomic shared-variable operation: ``writeto``/``addto``/
    ``valueof``.  ``shared_var`` names the shared variable; for
    ``valueof``, ``target`` receives the value."""

    __slots__ = ("op", "shared_var", "value", "target")

    OPS = ("writeto", "addto", "valueof")

    def __init__(self, op: str, shared_var: str,
                 value: Optional[Operand] = None,
                 target: Optional[str] = None):
        super().__init__()
        assert op in self.OPS
        self.op = op
        self.shared_var = shared_var
        self.value = value
        self.target = target

    def __repr__(self) -> str:
        return (f"SharedOpStmt(S{self.label}: {self.op}(&{self.shared_var}, "
                f"{self.value!r}) -> {self.target})")


class ReturnStmt(BasicStmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Operand] = None):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"ReturnStmt(S{self.label}: return {self.value!r})"


class PrintStmt(BasicStmt):
    """``printf(format, args...)`` -- output captured by the simulator."""

    __slots__ = ("format", "args")

    def __init__(self, format: str, args: List[Operand]):
        super().__init__()
        self.format = format
        self.args = list(args)

    def __repr__(self) -> str:
        return f"PrintStmt(S{self.label}: printf({self.format!r}, ...))"


class NopStmt(BasicStmt):
    """A placeholder produced by transformations when a statement is
    deleted; the validator tolerates it, printers skip it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"NopStmt(S{self.label})"


# -- compound statements -----------------------------------------------------


class SeqStmt(Stmt):
    """A statement sequence."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: List[Stmt]):
        super().__init__()
        self.stmts = list(stmts)

    def children(self) -> Sequence[Stmt]:
        return tuple(self.stmts)

    def __repr__(self) -> str:
        return f"SeqStmt(S{self.label}: {len(self.stmts)} stmts)"


class IfStmt(Stmt):
    __slots__ = ("cond", "then_seq", "else_seq")

    def __init__(self, cond: CondExpr, then_seq: SeqStmt,
                 else_seq: SeqStmt):
        super().__init__()
        self.cond = cond
        self.then_seq = then_seq
        self.else_seq = else_seq

    def children(self) -> Sequence[Stmt]:
        return (self.then_seq, self.else_seq)

    def __repr__(self) -> str:
        return f"IfStmt(S{self.label}: if {self.cond})"


class SwitchStmt(Stmt):
    """``switch`` with non-overlapping constant arms and an optional
    default arm (``None`` key)."""

    __slots__ = ("scrutinee", "cases", "default")

    def __init__(self, scrutinee: Operand,
                 cases: List[Tuple[int, SeqStmt]],
                 default: Optional[SeqStmt]):
        super().__init__()
        self.scrutinee = scrutinee
        self.cases = list(cases)
        self.default = default

    def children(self) -> Sequence[Stmt]:
        kids: List[Stmt] = [seq for _, seq in self.cases]
        if self.default is not None:
            kids.append(self.default)
        return tuple(kids)

    @property
    def num_alternatives(self) -> int:
        return len(self.cases) + (1 if self.default is not None else 0)

    def __repr__(self) -> str:
        return (f"SwitchStmt(S{self.label}: switch {self.scrutinee!r}, "
                f"{self.num_alternatives} arms)")


class WhileStmt(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: CondExpr, body: SeqStmt):
        super().__init__()
        self.cond = cond
        self.body = body

    def children(self) -> Sequence[Stmt]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"WhileStmt(S{self.label}: while {self.cond})"


class DoStmt(Stmt):
    """``do { body } while (cond)`` -- executes at least once, which is
    what lets RemoteWrite tuples escape it (paper's ``executesOnce``)."""

    __slots__ = ("cond", "body")

    def __init__(self, body: SeqStmt, cond: CondExpr):
        super().__init__()
        self.body = body
        self.cond = cond

    def children(self) -> Sequence[Stmt]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"DoStmt(S{self.label}: do..while {self.cond})"


class ParStmt(Stmt):
    """A parallel statement sequence ``{^ ... ^}``: branches may run
    concurrently and must not interfere on ordinary variables."""

    __slots__ = ("branches",)

    def __init__(self, branches: List[SeqStmt]):
        super().__init__()
        self.branches = list(branches)

    def children(self) -> Sequence[Stmt]:
        return tuple(self.branches)

    def __repr__(self) -> str:
        return f"ParStmt(S{self.label}: {len(self.branches)} branches)"


class ForallStmt(Stmt):
    """A ``forall`` loop: iterations may run concurrently.

    ``init`` and ``step`` are small sequences executed in the parent
    (sequentially, to enumerate iterations); each iteration of ``body``
    runs in a private frame.
    """

    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init: SeqStmt, cond: CondExpr, step: SeqStmt,
                 body: SeqStmt):
        super().__init__()
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body

    def children(self) -> Sequence[Stmt]:
        return (self.init, self.body, self.step)

    def __repr__(self) -> str:
        return f"ForallStmt(S{self.label}: forall {self.cond})"


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


class SimpleVar:
    """A variable in a SIMPLE function: parameter, user local, or
    compiler temporary."""

    __slots__ = ("name", "type", "kind", "is_shared")

    def __init__(self, name: str, type: Type, kind: str,
                 is_shared: bool = False):
        assert kind in ("param", "local", "temp")
        self.name = name
        self.type = type
        self.kind = kind
        self.is_shared = is_shared

    def __repr__(self) -> str:
        shared = "shared " if self.is_shared else ""
        return f"SimpleVar({shared}{self.type} {self.name} [{self.kind}])"


class SimpleFunction:
    """One function in SIMPLE form."""

    __slots__ = ("name", "return_type", "params", "variables", "body",
                 "_temp_counter", "_comm_counter", "_bcomm_counter")

    def __init__(self, name: str, return_type: Type,
                 params: List[SimpleVar]):
        self.name = name
        self.return_type = return_type
        self.params = list(params)
        self.variables: Dict[str, SimpleVar] = {
            p.name: p for p in params}
        self.body = SeqStmt([])
        self._temp_counter = itertools.count(1)
        self._comm_counter = itertools.count(1)
        self._bcomm_counter = itertools.count(1)

    def declare(self, name: str, type: Type, kind: str = "local",
                is_shared: bool = False) -> SimpleVar:
        if name in self.variables:
            raise ValueError(f"variable {name!r} already declared in "
                             f"{self.name}")
        var = SimpleVar(name, type, kind, is_shared)
        self.variables[name] = var
        return var

    def fresh_temp(self, type: Type, prefix: str = "temp") -> str:
        """Declare and return a fresh compiler temporary."""
        while True:
            name = f"{prefix}_{next(self._temp_counter)}"
            if name not in self.variables:
                break
        self.declare(name, type, "temp")
        return name

    def fresh_comm(self, type: Type) -> str:
        """A fresh ``comm`` variable for a hoisted remote read/write value
        (the paper's ``comm1``, ``comm2``...)."""
        while True:
            name = f"comm{next(self._comm_counter)}"
            if name not in self.variables:
                break
        self.declare(name, type, "temp")
        return name

    def fresh_bcomm(self, struct: StructType) -> str:
        """A fresh local struct buffer for blocked communication (the
        paper's ``bcomm1``...)."""
        while True:
            name = f"bcomm{next(self._bcomm_counter)}"
            if name not in self.variables:
                break
        self.declare(name, struct, "temp")
        return name

    def var(self, name: str) -> SimpleVar:
        return self.variables[name]

    def var_type(self, name: str) -> Type:
        return self.variables[name].type

    def can_split_read(self, stmt: "AssignStmt") -> bool:
        """May ``stmt``'s remote read be split-phase?  A pending value
        lands in the frame, where sync-on-use finds it, so not when the
        destination is a variable other than this function's own (a
        global)."""
        lhs = stmt.lhs
        return not isinstance(lhs, VarLV) or lhs.name in self.variables

    def label_map(self) -> Dict[int, Stmt]:
        """Label -> statement for the current body (recomputed on call)."""
        return {stmt.label: stmt for stmt in self.body.walk()}

    def __repr__(self) -> str:
        return f"SimpleFunction({self.name!r})"


class SimpleProgram:
    """A whole program in SIMPLE form.

    ``global_inits`` maps global variable names to their constant initial
    values (globals live in node 0's memory in the simulator).

    ``codegen_memo`` belongs to the codegen engine
    (:mod:`repro.earth.codegen`): what it emitted for each function
    under each emit context, so a repeat run binds code instead of
    emitting it again.  It is never pickled or copied -- a copy starts
    empty -- and a program is not rewritten once it has run.
    """

    __slots__ = ("structs", "globals", "global_inits", "functions",
                 "codegen_memo")

    def __init__(self, structs: Dict[str, StructType],
                 globals: Dict[str, SimpleVar]):
        self.structs = dict(structs)
        self.globals = dict(globals)
        self.global_inits: Dict[str, Union[int, float]] = {}
        self.functions: Dict[str, SimpleFunction] = {}
        self.codegen_memo: dict = {}

    def __getstate__(self):
        return (self.structs, self.globals, self.global_inits,
                self.functions)

    def __setstate__(self, state) -> None:
        (self.structs, self.globals, self.global_inits,
         self.functions) = state
        self.codegen_memo = {}

    def add_function(self, function: SimpleFunction) -> SimpleFunction:
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> SimpleFunction:
        return self.functions[name]

    def __repr__(self) -> str:
        return (f"SimpleProgram({len(self.functions)} functions, "
                f"{len(self.globals)} globals)")
