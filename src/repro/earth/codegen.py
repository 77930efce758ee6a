"""Textual per-function Python code generation engine ("codegen").

The compiled engine, and the default.  The AST walker
(:class:`~repro.earth.interpreter.Interpreter`) repeats per-statement
analysis on every dynamic execution: ``isinstance`` dispatch over node
classes, :func:`basic_uses` set construction, ``variables``/``globals``
dict lookups, field-path resolution, operator selection.  This engine
pays all of that once per function: it *emits Python source* for the
whole function, compiles it with :func:`compile`, and ``exec``\\ s it
into a per-function namespace:

* frame variables become Python locals (``x`` -> ``v_x``), so variable
  access is a fast-local load instead of a dict operation;
* each maximal run of basic statements charges the one statement
  counter, which is also the budget, once (``_stats.basic_stmts_executed
  += n``), and its purely-local stretches become straight-line code
  under one in-place add of their total EU time to the machine's slice
  clock (``_clk[0] += total``);
* what never blocks -- remote loads and stores, ``malloc``, ``blkmov``,
  shared-variable operations, spawns, result fulfills, ``printf`` -- is
  a plain call into the machine (``_issue`` / ``_spawn`` / ``_fulfill``
  / ``_print``) from inside the running slice.  ``_issue`` returns the
  value of an operation that completed at issue, and a
  :class:`~repro.earth.machine.Slot` only for one in flight;
* ``yield`` survives only where a fiber blocks (sync-on-use, remote
  operations in flight, placed-call results, par/forall joins, trailing
  split-phase writes -- ``_out``, omitted where none can occur):
  emitted code tests ``type(r) is Slot`` / ``slot.ready`` inline and
  takes the value, or yields the bare slot; calls ``yield from``;
* field offsets, operand readers, binop/coercion selection, global
  addresses and constant busy costs are resolved at codegen time, and
  coercions are elided where the operand's type already guarantees the
  representation (e.g. ``int(x)`` on a value that is provably an
  ``int``).

The one-yield contract and the ``Machine`` entry points (with their
re-entrancy invariant: :mod:`repro.earth.machine`) are the walker's
too, whatever tracer, fault plan, remote-data cache or shard port is
attached, so the engine is *bit-identical* to it: values,
``MachineStats``, ``time_ns`` and traces all match.  Every machine
parameter is a multiple of 0.5 ns, so float summation is exact and
coalescing busy amounts cannot change ``time_ns``.  Sync-wait ordering
is replicated exactly: the generator builds the same name sets the
walker's ``_sync_uses`` builds at run time, sorted the same way, and
filters them down to the names that can ever hold a pending ``Slot``.

Known (accepted) divergence: the statement counter is charged per
straight-line run, so a run that exhausts ``max_stmts`` may abort up to
one such run earlier than the walker would.  Whether a program raises
the budget ``InterpreterError`` or completes is the same function of
its statement count on both engines, and ``basic_stmts_executed`` is
exact for every completing run.

The generator is total over validated SIMPLE: every function of such
a program is emitted, and one engine runs the whole program.  What it
relies on is checked before it runs -- names are identifiers, the type
checker settles operators and access shapes, the front end refuses
global struct variables, and ``simple.validate`` refuses a split-phase
read into a global, so every name that can hold a pending ``Slot`` is
a frame variable.  A construct outside that (only a hand-built
program can hold one) is an :class:`~repro.errors.InterpreterError`
naming the function and the construct, raised when the function is
bound.

Each function is emitted once per program and :class:`EmitContext`.
The context holds every run fact the text bakes in -- node count,
statement budget, whether a tracer is attached, and the three
``MachineParams`` costs the generator reads -- and the generator reads
the run through it alone; the rest it reads from the program (global
addresses too: ``Interpreter._init_globals`` lays them out from the
program alone).  The context is also the key of the program's memo
(``SimpleProgram.codegen_memo``), which maps ``(function name,
context)`` to the emitted source with its code object.  A repeat run
-- another fault plan, another remote-data cache geometry -- finds its
functions there, binds them into one namespace per engine and
``exec``\\ s them: it neither walks the SIMPLE tree nor emits text.

Debugging: the emitted source of every generated function is kept in
``CodegenEngine.sources`` and can be printed with the CLI's
``--dump-codegen`` flag, which prints it from the memo the run uses.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.earth.interpreter import (
    BUDGET_MSG,
    _MATH_BUILTINS,
    _MATH_COST_NS,
    Interpreter,
    SharedCell,
    _c_div,
    _c_mod,
    _normalize_word,
)
from repro.earth.machine import Fiber, JoinCounter, Slot
from repro.earth.memory import FILLER, NODE_SPAN
from repro.errors import InterpreterError, MemoryFault
from repro.frontend.types import PointerType, ScalarType, StructType, Type
from repro.simple import nodes as s
from repro.simple.traversal import basic_uses

#: Compiled code objects keyed by emitted source text, the one
#: process-wide cache.  A repeat run of one program under one emit
#: context never reaches it (the program's memo has the code); what it
#: serves is a *recompile* of the same source -- a new
#: ``SimpleProgram`` whose functions emit byte-identical text, since
#: statement labels are numbered per compilation -- which then skips
#: CPython ``compile()``, the dominant cost of warming this engine up.
#: Bounded LRU so long-lived service workers
#: cycling through many programs cannot grow it without limit.
_CODE_CACHE: "OrderedDict[str, object]" = OrderedDict()
_CODE_CACHE_LIMIT = 512

# ---------------------------------------------------------------------------
# Operator and coercion selection (semantics of
# ``interpreter._apply_binop`` / ``Interpreter._coerce``, one callable
# per case so emitted code names exactly the one it needs).
# ---------------------------------------------------------------------------


def _op_div(left, right):
    if right == 0:
        raise InterpreterError("division by zero")
    if isinstance(left, float) or isinstance(right, float):
        return left / right
    return _c_div(left, right)


def _op_mod(left, right):
    if right == 0:
        raise InterpreterError("modulo by zero")
    return _c_mod(int(left), int(right))


def _char_coerce(value):
    return int(value) & 0xFF


_KIND_COERCE: Dict[str, Callable] = {
    "int": int,
    "char": _char_coerce,
    "float": float,
    "double": float,
}


def _coerce_fn(type: Optional[Type]) -> Optional[Callable]:
    """The coercion callable for a declared type (``None`` = identity);
    mirrors ``Interpreter._coerce``."""
    if isinstance(type, ScalarType):
        return _KIND_COERCE.get(type.kind)
    if isinstance(type, PointerType):
        return int
    return None


_zero_of = Interpreter._zero_of


# ---------------------------------------------------------------------------
# Runtime helpers referenced by emitted code (installed in every
# generated function's namespace).  Each mirrors one runtime check of
# the walker, with identical error messages.
# ---------------------------------------------------------------------------


def _chkread(value, name):
    """Checked read of a slot-capable / shared frame variable."""
    if type(value) is Slot:
        raise InterpreterError(
            f"unsynchronized use of pending value {name!r}")
    if type(value) is SharedCell:
        raise InterpreterError(
            f"shared variable {name!r} read directly")
    return value


def _ptr(value, name):
    """Pointer-ness check for values the codegen cannot type."""
    if not isinstance(value, int):
        raise InterpreterError(
            f"{name!r} does not hold a pointer: {value!r}")
    return value


def _sbuf(buffer, name):
    """Struct-buffer check before offset indexing."""
    if not isinstance(buffer, list):
        raise InterpreterError(f"{name!r} is not a struct buffer")
    return buffer


def _shchk(cell, name):
    """SharedCell check before a shared-variable operation."""
    if not isinstance(cell, SharedCell):
        raise InterpreterError(
            f"{name!r} is not a shared variable")
    return cell


def _faddr(base, offset):
    """``&(p->field)`` with the walker's nil check."""
    if base == 0:
        raise MemoryFault("&(nil->field)")
    return base + offset


# Map the coercion callables (as chosen by ``_coerce_fn``) to source
# fragments; ``%s`` is the operand expression.
_COERCE_FMT = {
    int: "int(%s)",
    _char_coerce: "(int(%s) & 255)",
    float: "float(%s)",
}

# Declared-type "kind" lattice used for coercion elision: 'int' means
# the value is provably a Python int, 'float' provably a float, None
# unknown.  Only exact matches elide a coercion.
_KIND_OF_SCALAR = {"int": "int", "char": "int",
                   "float": "float", "double": "float"}

_HEAP_READS = (s.FieldReadRhs, s.DerefReadRhs, s.IndexReadRhs)
_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
_BITOPS = ("&", "|", "^", "<<", ">>")


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class GeneratedFunction:
    """One SIMPLE function lowered to emitted Python source.  Callers
    only need ``.invoke`` (the engine cells hold these)."""

    __slots__ = ("name", "function", "invoke", "source")

    def __init__(self, function: s.SimpleFunction, invoke, source: str):
        self.name = function.name
        self.function = function
        self.invoke = invoke
        self.source = source


class EmitContext(NamedTuple):
    """Every fact about a run that emitted text bakes in, and so the
    key (with the function name) of the program's memo: a run whose
    context is equal binds the same code.  Fault plans, remote-data
    cache geometry and the other machine parameters are not in it."""

    num_nodes: int
    max_stmts: int
    traced: bool
    local_stmt_ns: float
    call_overhead_ns: float
    join_ns: float

    @classmethod
    def of(cls, interp: Interpreter) -> "EmitContext":
        machine = interp.machine
        params = machine.params
        return cls(machine.num_nodes, interp.max_stmts,
                   machine.tracer is not None, params.local_stmt_ns,
                   params.call_overhead_ns, params.join_ns)


class _Emitted(NamedTuple):
    """One function as the memo keeps it: what to ``exec`` and what
    its namespace needs beyond the engine's own."""

    source: str
    code: object
    #: Callees whose engine cells are bound as ``_cf_<name>``.
    callees: Tuple[str, ...]
    #: Static ``_mb_*`` / ``_gv_*`` bindings (math builtins, global
    #: shared variables' declarations).
    objects: Tuple[Tuple[str, object], ...]


class CodegenEngine:
    """Binds the functions of one ``(program, machine)`` pair lazily,
    emitting each only when the program's memo has nothing for it under
    this run's :class:`EmitContext`.  Owned by one
    :class:`Interpreter`."""

    __slots__ = ("interp", "program", "context", "compiled", "_cells",
                 "_ns", "sources")

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.program = interp.program
        self.context = EmitContext.of(interp)
        self.compiled: Dict[str, object] = {}
        # Call sites bind a one-element cell per callee so mutually
        # recursive functions can reference each other before they are
        # bound; the cell is filled on first binding.
        self._cells: Dict[str, list] = {}
        # One namespace for every function this engine binds.
        self._ns: Optional[dict] = None
        # Emitted source per generated function (for --dump-codegen
        # and the golden-snapshot test).
        self.sources: Dict[str, str] = {}

    def cell(self, name: str) -> list:
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = [None]
        return cell

    def function(self, name: str):
        compiled = self.compiled.get(name)
        if compiled is None:
            compiled = self.compiled[name] = self._bind(name)
            self.cell(name)[0] = compiled
        return compiled

    def _bind(self, name: str):
        func = self.program.functions.get(name)
        if func is None:
            raise InterpreterError(f"call to unknown function {name!r}")
        memo = self.program.codegen_memo
        key = (name, self.context)
        emitted = memo.get(key)
        if emitted is None:
            emitted = _CodeGenerator(
                self.context, self.program,
                self.interp.machine.memory, func).generate()
            # Two threads running one program may both get here; what
            # they store is equal.
            memo[key] = emitted
        ns = self._ns
        if ns is None:
            ns = self._ns = self._namespace()
        for callee in emitted.callees:
            ns["_cf_" + callee] = self.cell(callee)
        ns.update(emitted.objects)
        exec(emitted.code, ns)
        self.sources[name] = emitted.source
        return GeneratedFunction(func, ns["invoke"], emitted.source)

    def _namespace(self) -> dict:
        """What emitted code refers to by name, bound to this run (each
        function's ``def invoke`` rebinds ``invoke``, which no emitted
        code reads)."""
        interp = self.interp
        machine = interp.machine
        memory = machine.memory
        applier = interp._applier
        return {
            "InterpreterError": InterpreterError,
            "MemoryFault": MemoryFault,
            "Slot": Slot,
            "SharedCell": SharedCell,
            "Fiber": Fiber,
            "JoinCounter": JoinCounter,
            "_nw": _normalize_word,
            "_op_div": _op_div,
            "_op_mod": _op_mod,
            "_chkread": _chkread,
            "_ptr": _ptr,
            "_sbuf": _sbuf,
            "_shchk": _shchk,
            "_faddr": _faddr,
            "_stats": machine.stats,
            "_machine": machine,
            "_engine": self,
            "_mem_read": memory.read_word,
            "_mem_write": memory.write_word,
            "_clk": machine.clock,
            "_issue": machine.issue,
            "_spawn": machine.spawn,
            "_fulfill": machine.signal,
            "_print": machine.print,
            "_tracer": machine.tracer,
            "_NODE_SPAN": NODE_SPAN,
            "_FILLER": FILLER,
            "_BUDGET_MSG": BUDGET_MSG % interp.max_stmts,
            "_shg": interp._shared_global,
            "_blkmov": applier.blkmov,
            "_ptr_to_buf": applier.ptr_to_buf,
            "_buf_to_ptr": applier.buf_to_ptr,
        }


# ---------------------------------------------------------------------------
# Per-function code generator
# ---------------------------------------------------------------------------


class _EmitCtx:
    """Where statements are being emitted: the main activation body, a
    par branch, or a forall iteration body.  Controls how ReturnStmt
    lowers and which outstanding-slot list split operations feed."""

    __slots__ = ("mode", "out", "sig", "err")

    def __init__(self, mode: str, out: Optional[str],
                 sig: Optional[str] = None, err: Optional[str] = None):
        self.mode = mode      # "main" | "par" | "forall"
        self.out = out        # outstanding list variable name
        #                       (None: nothing can be left outstanding)
        self.sig = sig        # forall: signal flag variable name
        self.err = err        # par/forall: error message


class _CodeGenerator:
    """Emits one Python generator function (``invoke``) per SIMPLE
    function.  It reads the run only through ``context``, and
    ``memory`` only for the program's global addresses."""

    def __init__(self, context: EmitContext, program: s.SimpleProgram,
                 memory, func: s.SimpleFunction):
        self.ctx = context
        self.program = program
        self.memory = memory
        self.func = func
        self.local_ns = context.local_stmt_ns
        self.slotcap = self._slot_capable_names(func)
        self.lines: List[str] = []
        self.indent = 0
        self._tmp = 0
        self._defn = 0
        # Stack of per-def assigned-name sets (for nonlocal in par
        # branches; forall iteration defs discard theirs -- captured
        # names are parameters there).
        self._assigned: List[Set[str]] = [set()]
        # What the namespace needs beyond the engine's own (_Emitted).
        self.callees: Set[str] = set()
        self.objects: Dict[str, object] = {}

    # -- static analyses -----------------------------------------------------

    @staticmethod
    def _slot_capable_names(func: s.SimpleFunction) -> set:
        """Names that can ever hold a pending Slot in a frame of this
        function: split-phase remote reads into a plain variable, and
        lazily-filled whole-buffer blkmov destinations."""
        names = set()
        for stmt in func.body.walk():
            if isinstance(stmt, s.AssignStmt) and stmt.split_phase \
                    and isinstance(stmt.lhs, s.VarLV) \
                    and isinstance(stmt.rhs, _HEAP_READS) \
                    and stmt.rhs.remote:
                names.add(stmt.lhs.name)
            elif isinstance(stmt, s.BlkmovStmt) and stmt.split_phase \
                    and stmt.dst[0] == "local" and stmt.dst[2] == 0:
                names.add(stmt.dst[1])
        return names

    def _sync_entries_for_basic(self, stmt: s.BasicStmt):
        # Build the SAME names, via the same mutations, as the walker's
        # ``_sync_uses``, then sort: ``basic_uses`` returns a
        # hash-ordered set, and wait order must not depend on the
        # process's hash seed (it is observable through simulated time
        # whenever two slots are pending at once).
        names = basic_uses(stmt)
        if isinstance(stmt, s.AssignStmt) and \
                isinstance(stmt.lhs, s.StructFieldWriteLV):
            names = set(names)
            names.add(stmt.lhs.struct_var)
        if isinstance(stmt, s.BlkmovStmt) and stmt.dst[0] == "local":
            names = set(names)
            names.add(stmt.dst[1])
        return self._sync_entries(sorted(names))

    def _sync_entries(self, names):
        """Filter to slot-capable names, preserving iteration order;
        attach the coercion the walker would apply on delivery."""
        entries = []
        variables = self.func.variables
        for name in names:
            if name not in self.slotcap:
                continue
            var = variables.get(name)
            coerce = _coerce_fn(var.type) if var is not None else None
            entries.append((name, coerce))
        return tuple(entries)

    def _leaves_outstanding(self, stmt: s.Stmt) -> bool:
        """Can ``stmt`` leave an operation outstanding?  Case for case
        the ``w_settle(..., True, ctx)`` emitters below; a forall body
        is skipped, its iterations keep their own list."""
        if isinstance(stmt, s.AssignStmt):
            return not self._store_is_pure(stmt.lhs) and (
                stmt.split_phase or (isinstance(stmt.rhs, _HEAP_READS)
                                     and not stmt.rhs.remote))
        if isinstance(stmt, s.BlkmovStmt):
            return stmt.split_phase and stmt.dst[0] == "ptr"
        if isinstance(stmt, s.SharedOpStmt):
            return stmt.op != "valueof"
        kids = (stmt.init, stmt.step) if isinstance(stmt, s.ForallStmt) \
            else stmt.children()
        return any(self._leaves_outstanding(kid) for kid in kids)

    def _lookup_type(self, name: str) -> Type:
        var = self.func.variables.get(name)
        if var is None:
            var = self.program.globals.get(name)
        if var is None:
            raise self._refuse(f"unknown variable {name!r}")
        return var.type

    def _refuse(self, what: str) -> InterpreterError:
        """The error for a construct validated SIMPLE cannot contain."""
        return InterpreterError(
            f"{self.func.name}: codegen cannot emit {what}")

    # -- small emission helpers --------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def w_busy(self, ns: float) -> None:
        """Occupy the EU: advance the slice clock in place."""
        self.w(f"_clk[0] += {ns!r}")

    def w_wait(self, slot: str) -> None:
        """The protocol's one yield: park on ``slot`` unless ready."""
        self.w(f"if not {slot}.ready:")
        self.w(f"    yield {slot}")

    def w_issue(self, args: str) -> str:
        """A new temp: the operation's value if it completed at issue,
        else the Slot its reply will fulfil."""
        t = self.tmp()
        self.w(f"{t} = _issue({args})")
        return t

    def w_result(self, r: str, fmt: Optional[str] = None) -> None:
        """Use of a ``w_issue`` temp or a slot-capable variable: if it
        holds a Slot, take the value (``fmt``: and coerce a scalar)."""
        self.w(f"if type({r}) is Slot:")
        self.w(f"    {r} = {r}.value if {r}.ready else (yield {r})")
        if fmt is not None:
            self.w(f"    {r} = {r} if isinstance({r}, list) else {fmt % r}")

    def w_settle(self, r: str, split: bool, ctx: _EmitCtx) -> None:
        """A store in flight is left outstanding (``split``) or waited."""
        self.w(f"if type({r}) is Slot:")
        self.indent += 1
        if not split:
            self.w_wait(r)
        elif ctx.out is None:   # _leaves_outstanding missed a case
            raise self._refuse("a split-phase store with no "
                               "outstanding list")
        else:
            self.w(f"{ctx.out}.append({r})")
        self.indent -= 1

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def defn(self) -> int:
        self._defn += 1
        return self._defn

    def mark(self, name: str) -> None:
        self._assigned[-1].add(name)

    def var(self, name: str) -> str:
        if not name.isidentifier():
            raise self._refuse(f"variable name {name!r}")
        return "v_" + name

    # -- namespace ---------------------------------------------------------

    def _ns_cell(self, callee: str) -> str:
        """The namespace name of ``callee``'s engine cell."""
        if not callee.isidentifier():
            raise self._refuse(f"function name {callee!r}")
        self.callees.add(callee)
        return f"_cf_{callee}"

    def _ns_obj(self, prefix: str, name: str, obj) -> str:
        if not name.isidentifier():
            raise self._refuse(f"name {name!r}")
        key = f"{prefix}{name}"
        self.objects[key] = obj
        return key

    # -- entry -------------------------------------------------------------

    def generate(self) -> _Emitted:
        func = self.func
        fname = func.name
        nparams = len(func.params)
        self.w("def invoke(args, node, result_slot=None):")
        self.indent += 1
        self.w(f"if len(args) != {nparams}:")
        self.w(f"    raise InterpreterError({(fname + ': expected ' + str(nparams) + ' args, got %d')!r} % (len(args),))")
        for i, p in enumerate(func.params):
            fmt = _COERCE_FMT.get(_coerce_fn(p.type))
            src = f"args[{i}]" if fmt is None else fmt % f"args[{i}]"
            self.w(f"{self.var(p.name)} = {src}")
        for name, v in func.variables.items():
            if v.kind == "param":
                continue
            if v.is_shared:
                self.w(f"{self.var(name)} = SharedCell("
                       f"{_zero_of(v.type)!r}, node)")
            elif v.type.is_struct:
                self.w(f"{self.var(name)} = [0] * "
                       f"{v.type.size_words()}")
            else:
                self.w(f"{self.var(name)} = {_zero_of(v.type)!r}")
        # No list of outstanding operations where none can be left.
        ctx = _EmitCtx("main", "_out" if self._leaves_outstanding(func.body)
                       else None)
        if ctx.out:
            self.w("_out = []")
        self.emit_seq(func.body, ctx)
        self._emit_main_epilogue(repr(_zero_of(func.return_type)), ctx)
        self.w("yield  # unreachable; keeps this a generator")
        self.indent -= 1
        source = "\n".join(
            [f"# codegen for SIMPLE function {fname!r}"]
            + self.lines) + "\n"
        code = _CODE_CACHE.get(source)
        if code is None:
            code = compile(source, f"<codegen:{fname}>", "exec")
        # Threads share this cache (``serve --workers 0``) and may evict
        # the entry just looked up: the LRU touch is remove + re-insert.
        _CODE_CACHE.pop(source, None)
        _CODE_CACHE[source] = code
        if len(_CODE_CACHE) > _CODE_CACHE_LIMIT:
            _CODE_CACHE.popitem(last=False)
        return _Emitted(source, code, tuple(self.callees),
                        tuple(self.objects.items()))

    def _emit_main_epilogue(self, value: str, ctx: _EmitCtx) -> None:
        """Wait trailing split-phase slots, fulfil the result slot,
        return -- inlined at every main-context return site."""
        self.w(f"_ret = {value}")
        if ctx.out:
            self.w("for _sl in _out:")
            self.w("    if not _sl.ready:")
            self.w("        yield _sl")
        self.w("if result_slot is not None:")
        self.w("    _fulfill(result_slot, _ret)")
        self.w("return _ret")

    # -- sequences and fusion ----------------------------------------------

    def emit_seq(self, seq: s.SeqStmt, ctx: _EmitCtx) -> None:
        """Charge each maximal run of basic statements to the statement
        counter once, and fuse the run's purely-local stretches into
        straight-line code under one add of their total EU time.  An
        operation ends a clock block (the machine reads ``_clk[0]``)
        but not a count; a compound statement or a ``return`` does (a
        taken return skips what follows, and the count stays exact)."""
        items: List[s.Stmt] = []
        self._flatten_stmts(seq, items)
        classified = [self._classify(stmt) for stmt in items]
        i, n = 0, len(items)
        counted = 0  # items[:counted] are charged (or compound)
        while i < n:
            if i == counted:
                counted += 1
                if isinstance(items[i], s.BasicStmt):
                    while counted < n \
                            and isinstance(items[counted], s.BasicStmt) \
                            and not isinstance(items[counted - 1],
                                               s.ReturnStmt):
                        counted += 1
                    self.w(f"_stats.basic_stmts_executed += "
                           f"{counted - i}")
                    self.w(f"if _stats.basic_stmts_executed >= "
                           f"{self.ctx.max_stmts!r}:")
                    self.w("    raise InterpreterError(_BUDGET_MSG)")
            if classified[i][0] == "pure":
                busy = 0.0
                effects = []
                while i < n and classified[i][0] == "pure":
                    busy += classified[i][1]
                    if classified[i][2] is not None:
                        effects.append(classified[i][2])
                    i += 1
                self.w_busy(busy)
                for effect in effects:
                    effect(ctx)
            else:
                classified[i][1](ctx)
                i += 1

    def _flatten_stmts(self, seq: s.SeqStmt, items: list) -> None:
        for stmt in seq.stmts:
            if isinstance(stmt, s.SeqStmt):
                self._flatten_stmts(stmt, items)
            else:
                items.append(stmt)

    # -- statement dispatch -------------------------------------------------

    def _classify(self, stmt: s.Stmt):
        """("pure", busy, effect-emitter-or-None) for statements that
        fuse, ("gen", emitter) for split-phase/compound ones.  Mirrors
        the walker's ``_exec_stmt``/``_exec_basic`` case for case."""
        if isinstance(stmt, s.BasicStmt):
            if isinstance(stmt, s.AssignStmt):
                return self._gen_assign(stmt)
            if isinstance(stmt, s.CallStmt):
                return self._gen_call(stmt)
            if isinstance(stmt, s.AllocStmt):
                return ("gen", lambda ctx: self._gen_alloc(stmt, ctx))
            if isinstance(stmt, s.BlkmovStmt):
                return ("gen", lambda ctx: self._gen_blkmov(stmt, ctx))
            if isinstance(stmt, s.SharedOpStmt):
                return ("gen", lambda ctx: self._gen_shared(stmt, ctx))
            if isinstance(stmt, s.ReturnStmt):
                return ("gen", lambda ctx: self._gen_return(stmt, ctx))
            if isinstance(stmt, s.PrintStmt):
                return self._pure_or_sync_gen(
                    stmt, 1000.0, lambda ctx: self._gen_print(stmt))
            if isinstance(stmt, s.NopStmt):
                return self._pure_or_sync_gen(stmt, 0.0, None)
            raise self._refuse(f"statement {stmt!r}")
        if isinstance(stmt, s.IfStmt):
            return ("gen", lambda ctx: self._gen_if(stmt, ctx))
        if isinstance(stmt, s.WhileStmt):
            return ("gen", lambda ctx: self._gen_while(stmt, ctx))
        if isinstance(stmt, s.DoStmt):
            return ("gen", lambda ctx: self._gen_do(stmt, ctx))
        if isinstance(stmt, s.SwitchStmt):
            return ("gen", lambda ctx: self._gen_switch(stmt, ctx))
        if isinstance(stmt, s.ParStmt):
            return ("gen", lambda ctx: self._gen_par(stmt, ctx))
        if isinstance(stmt, s.ForallStmt):
            return ("gen", lambda ctx: self._gen_forall(stmt, ctx))
        raise self._refuse(f"statement {stmt!r}")

    def _pure_or_sync_gen(self, stmt, busy: float, effect):
        """PURE when the statement has no sync entries (so it can fuse);
        otherwise a GEN emitter with prologue + sync + busy + effect."""
        entries = self._sync_entries_for_basic(stmt)
        if not entries:
            return ("pure", busy, effect)

        def emit(ctx):
            self._emit_prologue(stmt)
            self.w_busy(busy)
            if effect is not None:
                effect(ctx)
        return ("gen", emit)

    # -- per-statement prologue / sync --------------------------------------

    def _emit_prologue(self, stmt: s.BasicStmt) -> None:
        """Sync-on-use of what ``stmt`` consumes, then callsite
        attribution for the operations it issues (after the sync: while
        this fiber waits, others move the site)."""
        self._emit_sync(self._sync_entries_for_basic(stmt))
        if self.ctx.traced:
            self.w(f"_tracer.current_site = "
                   f"({self.func.name!r}, {stmt.label!r})")

    def _emit_sync(self, entries) -> None:
        for name, coerce in entries:
            self.w_result(self.var(name), _COERCE_FMT.get(coerce))
            self.mark(name)

    # -- expressions ---------------------------------------------------------
    #
    # ``_x_*`` helpers may emit setup lines into the current buffer and
    # return ``(expr, kind)`` where kind is 'int' (provably a Python
    # int), 'float' (provably a float) or None (unknown).  Coercions
    # are elided only on an exact kind match.

    def _kind_of_type(self, type_) -> Optional[str]:
        if isinstance(type_, ScalarType):
            return _KIND_OF_SCALAR.get(type_.kind)
        if isinstance(type_, PointerType):
            return "int"
        return None

    def _coerce_expr(self, type_, expr: str, kind: Optional[str]) -> str:
        """Apply the declared-type coercion to ``expr``, elided when
        the operand kind already guarantees the representation."""
        fn = _coerce_fn(type_)
        if fn is None:
            return expr
        target = "int" if fn is int else \
            "float" if fn is float else None
        if target is not None and kind == target:
            return expr
        return _COERCE_FMT[fn] % expr

    def _x_var(self, name: str) -> Tuple[str, Optional[str]]:
        var = self.func.variables.get(name)
        if var is not None:
            v = self.var(name)
            if name in self.slotcap or var.is_shared:
                return f"_chkread({v}, {name!r})", \
                    self._kind_of_type(var.type)
            return v, self._kind_of_type(var.type)
        gvar = self.program.globals.get(name)
        if gvar is not None:
            address = self.memory.global_address(name)
            # Memory words are untyped (a global can be written through
            # an aliasing pointer), so no kind is assumed.
            return f"_nw(_mem_read({address!r}))", None
        raise self._refuse(f"unknown variable {name!r}")

    def _x_operand(self, operand: s.Operand) -> Tuple[str, Optional[str]]:
        if isinstance(operand, s.Const):
            return self._x_const(operand.value)
        if isinstance(operand, s.VarUse):
            return self._x_var(operand.name)
        raise self._refuse(f"operand {operand!r}")

    def _x_const(self, value) -> Tuple[str, Optional[str]]:
        if type(value) is int:
            return repr(value), "int"
        if type(value) is float:
            # ``repr`` of a non-finite float (``inf``, ``nan``) is not
            # a Python expression; ``float('-inf')`` is.
            return (repr(value) if math.isfinite(value)
                    else f"float({repr(value)!r})"), "float"
        raise self._refuse(f"constant {value!r}")

    def _x_pointer(self, name: str) -> Tuple[str, Optional[str]]:
        """A variable read that must hold a pointer; the isinstance
        check is elided when the declared type already proves int."""
        expr, kind = self._x_var(name)
        if kind == "int":
            return expr, kind
        return f"_ptr({expr}, {name!r})", "int"

    def _binop_kind(self, op: str, lk, rk) -> Optional[str]:
        if op in _COMPARISONS or op == "%" or op in _BITOPS:
            return "int"
        if op in ("+", "-", "*", "/"):
            if lk == "int" and rk == "int":
                return "int" if op != "/" else "int"
            if lk in ("int", "float") and rk in ("int", "float"):
                return "float"
            return None
        return None

    def _x_binop(self, op: str, left: str, lk, right: str, rk
                 ) -> Tuple[str, Optional[str]]:
        if op in _COMPARISONS:
            return f"(1 if {left} {op} {right} else 0)", "int"
        if op in ("+", "-", "*"):
            return f"({left} {op} {right})", \
                self._binop_kind(op, lk, rk)
        if op == "/":
            return f"_op_div({left}, {right})", \
                self._binop_kind(op, lk, rk)
        if op == "%":
            return f"_op_mod({left}, {right})", "int"
        if op in _BITOPS:
            li = left if lk == "int" else f"int({left})"
            ri = right if rk == "int" else f"int({right})"
            return f"({li} {op} {ri})", "int"
        raise self._refuse(f"operator {op!r}")

    def _x_rhs(self, rhs: s.Rhs) -> Tuple[str, Optional[str]]:
        if isinstance(rhs, s.OperandRhs):
            return self._x_operand(rhs.operand)
        if isinstance(rhs, s.UnaryRhs):
            expr, kind = self._x_operand(rhs.operand)
            if rhs.op == "-":
                return f"(-{expr})", kind
            if rhs.op == "!":
                return f"(0 if {expr} else 1)", "int"
            if rhs.op == "~":
                inner = expr if kind == "int" else f"int({expr})"
                return f"(~{inner})", "int"
            raise self._refuse(f"unary operator {rhs.op!r}")
        if isinstance(rhs, s.BinaryRhs):
            left, lk = self._x_operand(rhs.left)
            right, rk = self._x_operand(rhs.right)
            return self._x_binop(rhs.op, left, lk, right, rk)
        if isinstance(rhs, s.ConvertRhs):
            expr, kind = self._x_operand(rhs.operand)
            if rhs.kind == "int":
                return (expr, "int") if kind == "int" \
                    else (f"int({expr})", "int")
            if rhs.kind == "char":
                inner = expr if kind == "int" else f"int({expr})"
                return f"({inner} & 255)", "int"
            if rhs.kind in ("float", "double"):
                return (expr, "float") if kind == "float" \
                    else (f"float({expr})", "float")
            return expr, kind  # unknown kind: operand unchanged
        if isinstance(rhs, s.AddrOfRhs):
            if self.memory.has_global(rhs.var):
                return repr(self.memory.global_address(rhs.var)), "int"
            raise self._refuse(f"the address of non-global {rhs.var!r}")
        if isinstance(rhs, s.FieldAddrRhs):
            base, _ = self._x_pointer(rhs.base)
            ptr_type = self._lookup_type(rhs.base)
            target = getattr(ptr_type, "target", None)
            offset, _ = rhs.path.resolve(target)
            return f"_faddr({base}, {offset!r})", "int"
        if isinstance(rhs, s.StructFieldReadRhs):
            name = rhs.struct_var
            struct_type = self.func.var_type(name)
            offset, field_type = rhs.path.resolve(struct_type)
            t = self.tmp()
            self.w(f"{t} = _sbuf({self.var(name)}, {name!r})")
            word = f"_nw({t}[{offset!r}])"
            return self._coerce_expr(field_type, word, None), \
                self._kind_of_type(field_type)
        raise self._refuse(f"right-hand side {rhs!r}")

    def _x_cond(self, cond: s.CondExpr) -> str:
        """A truthiness expression for an if/while/do condition (the
        walker's ``bool(...)`` is elided -- only truthiness is
        consumed)."""
        left, lk = self._x_operand(cond.left)
        if cond.op is None:
            return left
        right, rk = self._x_operand(cond.right)
        if cond.op in _COMPARISONS:
            return f"{left} {cond.op} {right}"
        expr, _ = self._x_binop(cond.op, left, lk, right, rk)
        return expr

    # -- heap access addresses ----------------------------------------------

    def _x_access(self, access) -> Tuple[str, Optional[str], object]:
        """Emit setup lines for a field/deref/index access and return
        ``(address expr, kind, value type)``; evaluation order (base,
        then index, both unconditionally) matches the walker's
        ``_access_address``."""
        if isinstance(access, (s.FieldReadRhs, s.FieldWriteLV)):
            base, _ = self._x_pointer(access.base)
            ptr_type = self._lookup_type(access.base)
            struct = getattr(ptr_type, "target", None)
            if not isinstance(struct, StructType):
                raise self._refuse(f"field access {access!r} through a "
                                   f"non-struct pointer")
            offset, field_type = access.path.resolve(struct)
            if offset == 0:
                return base, "int", field_type
            t = self.tmp()
            self.w(f"{t} = {base}")
            return f"({t} + {offset!r} if {t} != 0 else 0)", "int", \
                field_type
        if isinstance(access, (s.DerefReadRhs, s.DerefWriteLV)):
            base, _ = self._x_pointer(access.base)
            ptr_type = self._lookup_type(access.base)
            if not isinstance(ptr_type, PointerType):
                raise self._refuse(f"{access!r} through a non-pointer")
            return base, "int", ptr_type.target
        if isinstance(access, (s.IndexReadRhs, s.IndexWriteLV)):
            ptr_type = self._lookup_type(access.base)
            if not isinstance(ptr_type, PointerType):
                raise self._refuse(f"{access!r} through a non-pointer")
            base, _ = self._x_pointer(access.base)
            tb = self.tmp()
            self.w(f"{tb} = {base}")
            index, ik = self._x_operand(access.index)
            ti = self.tmp()
            self.w(f"{ti} = {index}")
            ii = ti if ik == "int" else f"int({ti})"
            return f"({tb} + {ii} if {tb} != 0 else 0)", "int", \
                ptr_type.target
        raise self._refuse(f"access {access!r}")

    # -- stores --------------------------------------------------------------

    @staticmethod
    def _store_is_pure(lhs) -> bool:
        if isinstance(lhs, (s.VarLV, s.StructFieldWriteLV)):
            return True
        return not lhs.remote

    def _emit_store_var(self, name: str, value: str,
                        kind: Optional[str]) -> None:
        """Mirror of the walker's ``_store_var`` (frame variable or
        global), with the name resolved at codegen time."""
        var = self.func.variables.get(name)
        if var is not None:
            self.w(f"{self.var(name)} = "
                   f"{self._coerce_expr(var.type, value, kind)}")
            self.mark(name)
            return
        gvar = self.program.globals.get(name)
        if gvar is None:
            raise self._refuse(f"a store to unknown variable {name!r}")
        address = self.memory.global_address(name)
        coerced = self._coerce_expr(gvar.type, value, kind)
        self.w(f"_mem_write({address!r}, {coerced})")
        if gvar.type.size_words() == 2:
            self.w(f"_mem_write({address + 1!r}, _FILLER)")

    def _emit_pure_store(self, lhs, value: str,
                         kind: Optional[str]) -> None:
        """Non-yielding store; evaluation order (value first, then
        target checks, then coercion) matches the walker's
        ``_store_lvalue``."""
        if isinstance(lhs, s.VarLV):
            self._emit_store_var(lhs.name, value, kind)
            return
        if isinstance(lhs, s.StructFieldWriteLV):
            name = lhs.struct_var
            if name not in self.func.variables:
                raise self._refuse(f"a field store to non-local struct "
                                   f"{name!r}")
            struct_type = self.func.var_type(name)
            offset, field_type = lhs.path.resolve(struct_type)
            tv = self.tmp()
            self.w(f"{tv} = {value}")
            tb = self.tmp()
            self.w(f"{tb} = _sbuf({self.var(name)}, {name!r})")
            self.w(f"{tb}[{offset!r}] = "
                   f"{self._coerce_expr(field_type, tv, kind)}")
            if field_type.size_words() == 2:
                self.w(f"{tb}[{offset + 1!r}] = _FILLER")
            return
        # Local heap write.
        fname = self.func.name
        tv = self.tmp()
        self.w(f"{tv} = {value}")
        addr, _, field_type = self._x_access(lhs)
        ta = self.tmp()
        self.w(f"{ta} = {addr}")
        self.w(f"if {ta} == 0:")
        self.w(f"    raise MemoryFault("
               f"{(fname + ': nil dereference (write)')!r})")
        self.w(f"if {ta} // _NODE_SPAN != node:")
        msg = (f"{fname}: write compiled as local touches node %d "
               f"from node %d -- locality analysis or `local` "
               f"declaration is wrong")
        self.w(f"    raise InterpreterError({msg!r} % "
               f"({ta} // _NODE_SPAN, node))")
        self.w(f"_mem_write({ta}, "
               f"{self._coerce_expr(field_type, tv, kind)})")
        if field_type.size_words() == 2:
            self.w(f"_mem_write({ta} + 1, _FILLER)")

    def _emit_store_value(self, lhs, value: str, kind, split,
                          ctx: _EmitCtx) -> None:
        """Any-lvalue store for yielding contexts; ``value`` must
        already be a temp or re-evaluable atom."""
        if self._store_is_pure(lhs):
            self._emit_pure_store(lhs, value, kind)
            return
        # Remote heap write.
        addr, _, field_type = self._x_access(lhs)
        ta = self.tmp()
        self.w(f"{ta} = {addr}")
        self.w(f"if {ta} == 0:")
        self.w(f"    raise MemoryFault("
               f"{(self.func.name + ': nil dereference (write)')!r})")
        tc = self.tmp()
        self.w(f"{tc} = {self._coerce_expr(field_type, value, kind)}")
        words = field_type.size_words() or 1
        double = field_type.size_words() == 2
        self.w_settle(self.w_issue(
            f'"write", {ta} // _NODE_SPAN, {words!r}, '
            f'("write", {ta}, {tc}, {double!r}), "write", {ta}'),
            split, ctx)

    # -- assignments ---------------------------------------------------------

    def _emit_local_read_value(self, rhs) -> Tuple[str, object]:
        """Emit a checked local heap load; returns (temp, value type)."""
        fname = self.func.name
        addr, _, value_type = self._x_access(rhs)
        ta = self.tmp()
        self.w(f"{ta} = {addr}")
        self.w(f"if {ta} == 0:")
        self.w(f"    raise MemoryFault("
               f"{(fname + ': nil dereference (local read)')!r})")
        self.w(f"if {ta} // _NODE_SPAN != node:")
        msg = (f"{fname}: access compiled as local touches node %d "
               f"from node %d -- locality analysis or `local` "
               f"declaration is wrong")
        self.w(f"    raise InterpreterError({msg!r} % "
               f"({ta} // _NODE_SPAN, node))")
        tv = self.tmp()
        self.w(f"{tv} = _nw(_mem_read({ta}))")
        return tv, value_type

    def _gen_assign(self, stmt: s.AssignStmt):
        rhs, lhs = stmt.rhs, stmt.lhs
        local_ns = self.local_ns
        if isinstance(rhs, _HEAP_READS):
            if not rhs.remote:
                if self._store_is_pure(lhs):
                    def effect(ctx):
                        tv, _ = self._emit_local_read_value(rhs)
                        self._emit_pure_store(lhs, tv, None)
                    return self._pure_or_sync_gen(stmt, local_ns,
                                                  effect)

                def emit_local_remote(ctx):
                    self._emit_prologue(stmt)
                    self.w_busy(local_ns)
                    tv, _ = self._emit_local_read_value(rhs)
                    # NB the walker passes value_type (always truthy)
                    # as the split flag here; replicated for exactness.
                    self._emit_store_value(lhs, tv, None, True, ctx)
                return ("gen", emit_local_remote)

            def emit_remote(ctx):
                self._gen_remote_read(stmt, rhs, lhs, ctx)
            return ("gen", emit_remote)

        if self._store_is_pure(lhs):
            def effect(ctx):
                expr, kind = self._x_rhs(rhs)
                self._emit_pure_store(lhs, expr, kind)
            return self._pure_or_sync_gen(stmt, local_ns, effect)

        def emit_assign(ctx):
            self._emit_prologue(stmt)
            self.w_busy(local_ns)
            expr, kind = self._x_rhs(rhs)
            t = self.tmp()
            self.w(f"{t} = {expr}")
            self._emit_store_value(lhs, t, kind, stmt.split_phase,
                                   ctx)
        return ("gen", emit_assign)

    def _gen_remote_read(self, stmt, rhs, lhs, ctx: _EmitCtx) -> None:
        self._emit_prologue(stmt)
        self.w_busy(self.local_ns)
        addr, _, value_type = self._x_access(rhs)
        ta = self.tmp()
        self.w(f"{ta} = {addr}")
        tn = self.tmp()
        self.w(f"{tn} = {ta} // _NODE_SPAN if {ta} != 0 else node")
        words = value_type.size_words() or 1
        tv = self.w_issue(f'"read", {tn}, {words!r}, ("read", {ta}), '
                          f'{("read@" + str(stmt.label))!r}, {ta}')
        if stmt.split_phase and isinstance(lhs, s.VarLV):
            var = self.func.variables.get(lhs.name)
            if var is None:
                raise self._refuse(f"a split-phase read into non-local "
                                   f"{lhs.name!r}")
            # The pending Slot itself goes into the variable, raw; a
            # value that completed at issue, as _emit_sync delivers it.
            v = self.var(lhs.name)
            fmt = _COERCE_FMT.get(_coerce_fn(var.type))
            self.w(f"{v} = {tv}" if fmt is None else
                   f"{v} = {tv} if type({tv}) is Slot else {fmt % tv}")
            self.mark(lhs.name)
            return
        self.w_result(tv)
        self._emit_store_value(lhs, tv, None, stmt.split_phase, ctx)

    # -- calls ---------------------------------------------------------------

    def _gen_call(self, stmt: s.CallStmt):
        name = stmt.func
        local_ns = self.local_ns
        if name in _MATH_BUILTINS:
            fn_key = self._ns_obj("_mb_", name, _MATH_BUILTINS[name])

            def effect_math(ctx):
                arg, ak = self._x_operand(stmt.args[0])
                inner = arg if ak == "float" else f"float({arg})"
                tv = self.tmp()
                self.w(f"{tv} = {fn_key}({inner})")
                if stmt.target is not None:
                    self._emit_store_var(stmt.target, tv, None)
            return self._pure_or_sync_gen(stmt, _MATH_COST_NS,
                                          effect_math)
        if name == "num_nodes":
            def effect_num(ctx):
                if stmt.target is not None:
                    self._emit_store_var(
                        stmt.target, repr(self.ctx.num_nodes),
                        "int")
            return self._pure_or_sync_gen(stmt, local_ns, effect_num)
        if name == "my_node":
            def effect_my(ctx):
                if stmt.target is not None:
                    self._emit_store_var(stmt.target, "node", "int")
            return self._pure_or_sync_gen(stmt, local_ns, effect_my)
        if name == "owner_of":
            def effect_owner(ctx):
                arg, ak = self._x_operand(stmt.args[0])
                tp = self.tmp()
                self.w(f"{tp} = {arg}")
                if stmt.target is not None:
                    inner = tp if ak == "int" else f"int({tp})"
                    self._emit_store_var(
                        stmt.target, f"({inner} // _NODE_SPAN)",
                        "int")
            return self._pure_or_sync_gen(stmt, local_ns,
                                          effect_owner)
        if name not in self.program.functions:
            raise self._refuse(f"a call to unknown function {name!r}")
        cell_key = self._ns_cell(name)
        call_ns = self.ctx.call_overhead_ns

        def emit_call(ctx):
            self._emit_prologue(stmt)
            arg_temps = []
            for a in stmt.args:
                expr, _ = self._x_operand(a)
                t = self.tmp()
                self.w(f"{t} = {expr}")
                arg_temps.append(t)
            args_list = "[" + ", ".join(arg_temps) + "]"
            if stmt.placement is None:
                self.w_busy(call_ns)
                tc = self.tmp()
                self.w(f"{tc} = {cell_key}[0]")
                self.w(f"if {tc} is None:")
                self.w(f"    {tc} = _engine.function({name!r})")
                tv = self.tmp()
                self.w(f"{tv} = yield from "
                       f"{tc}.invoke({args_list}, node)")
                if stmt.target is not None:
                    self._emit_store_var(stmt.target, tv, None)
                return
            # Placed invocation: always a fresh fiber.
            placement = stmt.placement
            tn = self.tmp()
            home = False
            if placement[0] == "owner_of":
                pexpr, _ = self._x_pointer(placement[1])
                tp = self.tmp()
                self.w(f"{tp} = {pexpr}")
                self.w(f"{tn} = {tp} // _NODE_SPAN "
                       f"if {tp} != 0 else node")
            elif placement[0] == "home":
                home = True
                self.w(f"{tn} = node")
            elif placement[0] == "node":
                vexpr, vk = self._x_operand(placement[1])
                inner = vexpr if vk == "int" else f"int({vexpr})"
                self.w(f"{tn} = {inner} % "
                       f"{self.ctx.num_nodes!r}")
            else:
                raise self._refuse(f"placement {placement!r}")
            if not home:
                self.w(f"if {tn} != node:")
                self.w("    _stats.remote_calls += 1")
            ts = self.tmp()
            self.w(f"{ts} = Slot({('call:' + name)!r})")
            self.w(f"{ts}.node = node")
            tc = self.tmp()
            self.w(f"{tc} = {cell_key}[0]")
            self.w(f"if {tc} is None:")
            self.w(f"    {tc} = _engine.function({name!r})")
            tf = self.tmp()
            self.w(f"{tf} = Fiber({tc}.invoke({args_list}, {tn}, "
                   f"{ts}), {tn}, name={name!r})")
            self.w(f"{tf}.spawn_desc = ({name!r}, {args_list}, {ts})")
            # The cross-node request hop rides the network inside the
            # machine's spawn handling; the EU only pays the issue.
            self.w_busy(call_ns)
            self.w(f"_spawn({tf})")
            tv = self.tmp()
            self.w(f"{tv} = {ts}.value if {ts}.ready else (yield {ts})")
            if stmt.target is not None:
                self._emit_store_var(stmt.target, tv, None)
        return ("gen", emit_call)

    # -- malloc / blkmov / shared / return / print ---------------------------

    def _gen_alloc(self, stmt: s.AllocStmt, ctx: _EmitCtx) -> None:
        self._emit_prologue(stmt)
        wexpr, wk = self._x_operand(stmt.words)
        tw = self.tmp()
        self.w(f"{tw} = {wexpr if wk == 'int' else f'int({wexpr})'}")
        tn = self.tmp()
        if stmt.node is not None:
            nexpr, nk = self._x_operand(stmt.node)
            inner = nexpr if nk == "int" else f"int({nexpr})"
            self.w(f"{tn} = {inner} % {self.ctx.num_nodes!r}")
        else:
            self.w(f"{tn} = node")
        # An allocation always completes at issue.
        tv = self.w_issue(
            f'"malloc", {tn}, {tw}, '
            f'("alloc", {tn}, {tw}, node), "malloc"')
        self._emit_store_var(stmt.target, tv, None)

    def _x_endpoint(self, endpoint) -> Tuple[str, str]:
        """One blkmov endpoint as ``_blkmov`` takes it (the walker's
        ``_endpoint``) -> ``(argument, temp)``: a global address in
        ``temp``, or ``(buffer in temp, offset)``."""
        kind, name, offset = endpoint
        t = self.tmp()
        if kind == "ptr":
            pexpr, _ = self._x_pointer(name)
            self.w(f"{t} = {pexpr}")
            self.w(f"{t} = {t} + {offset!r} if {t} != 0 else 0")
            return t, t
        if name not in self.func.variables:
            raise self._refuse(f"blkmov endpoint {name!r}, not a local "
                               f"struct")
        self.w(f"{t} = _sbuf({self.var(name)}, {name!r})")
        return f"({t}, {offset!r})", t

    def _gen_blkmov(self, stmt: s.BlkmovStmt, ctx: _EmitCtx) -> None:
        words = stmt.words
        _, dst_name, dst_off = stmt.dst
        dst_is_ptr = stmt.dst[0] == "ptr"
        lazy = (not dst_is_ptr) and stmt.split_phase and dst_off == 0
        self._emit_prologue(stmt)
        src_arg, _ = self._x_endpoint(stmt.src)
        dst_arg, tdst = self._x_endpoint(stmt.dst)
        trn, top, tpost = self.tmp(), self.tmp(), self.tmp()
        # The endpoint shapes are fixed per statement: call the
        # applier's classifier for this shape, not the walker's.
        shape = (stmt.src[0], stmt.dst[0])
        args = f"{src_arg}, {dst_arg}, {words!r}, node"
        if shape == ("local", "ptr"):
            call = f"_buf_to_ptr({args})"
        else:
            fn = "_ptr_to_buf" if shape == ("ptr", "local") else "_blkmov"
            call = f"{fn}({args}, {lazy!r})"
        self.w(f"{trn}, {top}, {tpost} = {call}")
        td = self.w_issue(
            f'"blkmov", {trn}, {words!r}, {top}, '
            f'{("blkmov@" + str(stmt.label))!r}, '
            f'{tdst if dst_is_ptr else None}, {tpost}')
        if dst_is_ptr:
            self.w_settle(td, stmt.split_phase, ctx)
        elif lazy:  # the delivered word list, or the pending Slot
            self.w(f"{self.var(dst_name)} = {td}")
            self.mark(dst_name)
        else:
            self.w_result(td)
            self.w(f"{tdst}[{dst_off!r}:{dst_off + words!r}] = {td}")

    def _gen_shared(self, stmt: s.SharedOpStmt, ctx: _EmitCtx) -> None:
        op = stmt.op
        name = stmt.shared_var
        gvar = self.program.globals.get(name)
        global_ok = gvar is not None and gvar.is_shared
        declared = name in self.func.variables
        self._emit_prologue(stmt)
        unknown_msg = f"unknown shared variable {name!r}"
        tc = self.tmp()
        tg = None
        if declared:
            self.w(f"{tc} = {self.var(name)}")
            tg = self.tmp()
            self.w(f"{tg} = {tc} is None")
            self.w(f"if {tc} is None:")
            if global_ok:
                gv_key = self._ns_obj("_gv_", name, gvar)
                self.w(f"    {tc} = _shg({name!r}, {gv_key})")
            else:
                self.w(f"    raise InterpreterError("
                       f"{unknown_msg!r})")
            self.w(f"{tc} = _shchk({tc}, {name!r})")
        elif global_ok:
            gv_key = self._ns_obj("_gv_", name, gvar)
            self.w(f"{tc} = _shchk(_shg({name!r}, {gv_key}), "
                   f"{name!r})")
        else:
            self.w(f"raise InterpreterError({unknown_msg!r})")
            return
        value_temp = None
        if stmt.value is not None:
            vexpr, _ = self._x_operand(stmt.value)
            value_temp = self.tmp()
            self.w(f"{value_temp} = {vexpr}")
        operation = f'("sharedg", {name!r}, {op!r}, {value_temp})'
        if tg is not None:
            operation = (f'{operation} if {tg} else '
                         f'("sharedf", {tc}, {op!r}, {value_temp})')
        tv = self.w_issue(f'"shared", {tc}.owner, 1, {operation}, '
                          f'{("shared:" + op)!r}')
        if op == "valueof":
            self.w_result(tv)
            self._emit_store_var(stmt.target, tv, None)
        else:
            self.w_settle(tv, True, ctx)

    def _gen_return(self, stmt: s.ReturnStmt, ctx: _EmitCtx) -> None:
        self._emit_prologue(stmt)
        self.w_busy(self.local_ns)
        if stmt.value is not None:
            vexpr, _ = self._x_operand(stmt.value)
        else:
            vexpr = "0"
        if ctx.mode == "main":
            self._emit_main_epilogue(vexpr, ctx)
        elif ctx.mode == "par":
            t = self.tmp()
            self.w(f"{t} = {vexpr}")
            self.w(f"raise InterpreterError({ctx.err!r})")
        else:  # forall iteration body
            t = self.tmp()
            self.w(f"{t} = {vexpr}")
            self.w(f"{ctx.sig} = True")
            self.w("break")

    def _gen_print(self, stmt: s.PrintStmt) -> None:
        temps = []
        for a in stmt.args:
            expr, _ = self._x_operand(a)
            t = self.tmp()
            self.w(f"{t} = {expr}")
            temps.append(t)
        tup = "(" + ", ".join(temps) + ("," if temps else "") + ")"
        tt = self.tmp()
        self.w("try:")
        self.w(f"    {tt} = {stmt.format!r} % {tup}")
        self.w("except (TypeError, ValueError) as _e:")
        self.w("    raise InterpreterError("
               "'printf format error: %s' % (_e,)) from _e")
        self.w(f"_print({tt})")

    # -- compound statements -------------------------------------------------

    @staticmethod
    def _has_return(node) -> bool:
        return any(isinstance(x, s.ReturnStmt) for x in node.walk())

    def _emit_suite(self, seq: s.SeqStmt, ctx: _EmitCtx) -> None:
        mark = len(self.lines)
        self.emit_seq(seq, ctx)
        if len(self.lines) == mark:
            self.w("pass")

    def _seq_is_empty(self, seq: s.SeqStmt) -> bool:
        items: list = []
        self._flatten_stmts(seq, items)
        return not items

    def _maybe_cascade(self, contains_return: bool,
                       ctx: _EmitCtx) -> None:
        """In a forall iteration body, a lowered ReturnStmt sets the
        signal flag and ``break``s out of its nearest loop; every
        enclosing emitted loop re-breaks until the iteration wrapper
        is reached (mirroring the walker's signal propagation)."""
        if ctx.mode == "forall" and contains_return:
            self.w(f"if {ctx.sig}:")
            self.w("    break")

    def _gen_if(self, stmt: s.IfStmt, ctx: _EmitCtx) -> None:
        self._emit_sync(self._sync_entries(stmt.cond.variables()))
        self.w_busy(self.local_ns)
        self.w(f"if {self._x_cond(stmt.cond)}:")
        self.indent += 1
        self._emit_suite(stmt.then_seq, ctx)
        self.indent -= 1
        if not self._seq_is_empty(stmt.else_seq):
            self.w("else:")
            self.indent += 1
            self._emit_suite(stmt.else_seq, ctx)
            self.indent -= 1

    def _gen_while(self, stmt: s.WhileStmt, ctx: _EmitCtx) -> None:
        entries = self._sync_entries(stmt.cond.variables())
        self.w("while True:")
        self.indent += 1
        self._emit_sync(entries)
        self.w_busy(self.local_ns)
        self.w(f"if not ({self._x_cond(stmt.cond)}):")
        self.w("    break")
        self.emit_seq(stmt.body, ctx)
        self.indent -= 1
        self._maybe_cascade(self._has_return(stmt), ctx)

    def _gen_do(self, stmt: s.DoStmt, ctx: _EmitCtx) -> None:
        entries = self._sync_entries(stmt.cond.variables())
        self.w("while True:")
        self.indent += 1
        self.emit_seq(stmt.body, ctx)
        self._emit_sync(entries)
        self.w_busy(self.local_ns)
        self.w(f"if not ({self._x_cond(stmt.cond)}):")
        self.w("    break")
        self.indent -= 1
        self._maybe_cascade(self._has_return(stmt), ctx)

    def _gen_switch(self, stmt: s.SwitchStmt, ctx: _EmitCtx) -> None:
        self._emit_sync(
            self._sync_entries(stmt.scrutinee.variables()))
        self.w_busy(self.local_ns)
        sexpr, _ = self._x_operand(stmt.scrutinee)
        t = self.tmp()
        self.w(f"{t} = {sexpr}")
        first = True
        for case_value, seq in stmt.cases:
            kw = "if" if first else "elif"
            first = False
            self.w(f"{kw} {t} == {self._x_const(case_value)[0]}:")
            self.indent += 1
            self._emit_suite(seq, ctx)
            self.indent -= 1
        if stmt.default is not None:
            if first:
                self.emit_seq(stmt.default, ctx)
            else:
                self.w("else:")
                self.indent += 1
                self._emit_suite(stmt.default, ctx)
                self.indent -= 1

    def _gen_par(self, stmt: s.ParStmt, ctx: _EmitCtx) -> None:
        n = self.defn()
        join = f"_j{n}"
        self.w(f"{join} = JoinCounter({len(stmt.branches)})")
        branch_name = f"{self.func.name}:par"
        err = (f"{self.func.name}: return inside a parallel sequence "
               f"branch is not supported")
        # Branches share the parent's frame (Python locals, via
        # nonlocal) and the parent's outstanding list, exactly like
        # the walker's shared-activation branches.
        bctx = _EmitCtx("par", ctx.out, err=err)
        for bi, branch in enumerate(stmt.branches):
            bname = f"_pb{n}_{bi}"
            mark = len(self.lines)
            self.w(f"def {bname}():")
            self.indent += 1
            self._assigned.append(set())
            self.emit_seq(branch, bctx)
            self.w("return")
            self.w("yield  # unreachable; keeps this a generator")
            assigned = self._assigned.pop()
            self.indent -= 1
            if assigned:
                names = ", ".join(
                    sorted("v_" + a for a in assigned))
                self.lines.insert(
                    mark + 1,
                    "    " * (self.indent + 1)
                    + f"nonlocal {names}")
            tf = self.tmp()
            self.w(f"{tf} = Fiber({bname}(), node, "
                   f"name={branch_name!r})")
            self.w(f"{tf}.on_done.append({join}.child_done)")
            self.w(f"_spawn({tf})")
        self.w_wait(f"{join}.slot")
        self.w_busy(self.ctx.join_ns)

    def _gen_forall(self, stmt: s.ForallStmt, ctx: _EmitCtx) -> None:
        n = self.defn()
        entries = self._sync_entries(stmt.cond.variables())
        # init runs in the enclosing context.
        self.emit_seq(stmt.init, ctx)
        ch = f"_ch{n}"
        itname = f"_it{n}"
        iout = f"_iout{n}"
        sig = f"_sig{n}"
        err = (f"{self.func.name}: return inside forall body is not "
               f"supported")
        self.w(f"{ch} = []")
        self.w("while True:")
        self.indent += 1
        self._emit_sync(entries)
        self.w_busy(self.local_ns)
        self.w(f"if not ({self._x_cond(stmt.cond)}):")
        self.w("    break")
        # Iteration generator; default arguments snapshot the frame
        # with the exact semantics of Interpreter._copy_frame (lists
        # copied, everything else by reference).
        params = []
        for vname, v in self.func.variables.items():
            pv = self.var(vname)
            if _coerce_fn(v.type) is not None:
                params.append(f"{pv}={pv}")
            else:
                params.append(f"{pv}=(list({pv}) "
                              f"if isinstance({pv}, list) else {pv})")
        self.w(f"def {itname}({', '.join(params)}):")
        self.indent += 1
        self._assigned.append(set())
        self.w(f"{iout} = []")
        self.w(f"{sig} = False")
        self.w("while True:")
        self.indent += 1
        self.emit_seq(stmt.body, _EmitCtx("forall", iout, sig=sig))
        self.w("break")
        self.indent -= 1
        self.w(f"for _sl in {iout}:")
        self.w("    if not _sl.ready:")
        self.w("        yield _sl")
        self.w(f"if {sig}:")
        self.w(f"    raise InterpreterError({err!r})")
        self.w("return")
        self.w("yield  # unreachable; keeps this a generator")
        self._assigned.pop()
        self.indent -= 1
        tf = self.tmp()
        self.w(f"{tf} = Fiber({itname}(), node, "
               f"name={(self.func.name + ':forall')!r})")
        self.w(f"{ch}.append({tf})")
        self.w(f"_spawn({tf})")
        # step runs in the enclosing context.
        self.emit_seq(stmt.step, ctx)
        self.indent -= 1
        # A return lowered inside init/step of an enclosing forall
        # body breaks this scan loop; re-break BEFORE the join, like
        # the walker returning the signal past it.
        self._maybe_cascade(
            self._has_return(stmt.init) or self._has_return(stmt.step),
            ctx)
        join = f"_j{n}"
        self.w(f"{join} = JoinCounter(len({ch}))")
        self.w(f"for _f in {ch}:")
        self.w("    if _f.done:")
        self.w(f"        {join}.child_done(_machine, 0.0)")
        self.w("    else:")
        self.w(f"        _f.on_done.append({join}.child_done)")
        self.w_wait(f"{join}.slot")
        self.w_busy(self.ctx.join_ns)
