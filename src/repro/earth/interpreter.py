"""SIMPLE-program interpreter over the EARTH-MANNA machine model.

Executes a :class:`~repro.simple.nodes.SimpleProgram` on a
:class:`~repro.earth.machine.Machine`.  The same interpreter serves all
three configurations of the paper's Table III:

* **sequential C** -- a 1-node machine with
  :meth:`MachineParams.sequential_c` (no runtime overheads);
* **simple** -- the unoptimized program: remote accesses carry
  ``split_phase=False`` and execute synchronously (issue + wait),
  reproducing Table I's *sequential* costs;
* **optimized** -- after :mod:`repro.comm.optimizer`: hoisted reads and
  sunk writes carry ``split_phase=True``; consumers synchronize on first
  use (sync slots), so back-to-back issues pipeline and blkmovs carry
  whole structs.

Execution model: each function activation is a frame (dict) private to
its fiber; activations never migrate between nodes.  ``@OWNER_OF`` /
``@node`` calls spawn a fiber on the target node and the caller blocks
on the result slot (its EU runs other ready fibers meanwhile).
Parallel sequences spawn one fiber per branch sharing the parent frame
(branches must not interfere -- the EARTH-C contract); ``forall``
iterations get *copies* of the frame (iteration-private temporaries)
whose writes are discarded, with shared variables and the heap as the
only communication channels.

Nil handling follows the paper's runtime: speculative remote *reads* of
a nil pointer deliver 0 and are counted
(:attr:`MachineStats.speculative_nil_reads`); writes through nil always
fault; ``strict_nil_reads`` turns reads into faults too (debugging).
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.earth.machine import Fiber, JoinCounter, Machine, Slot
from repro.earth.memory import FILLER, node_of
from repro.earth.operations import Applier, normalize_word as _normalize_word
from repro.errors import InterpreterError, MemoryFault
from repro.frontend.types import (
    FieldPath,
    PointerType,
    ScalarType,
    StructType,
    Type,
)
from repro.simple import nodes as s
from repro.simple.traversal import basic_uses

Value = Union[int, float]

_MATH_BUILTINS = {
    "sqrt": math.sqrt,
    "fabs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
}

_MATH_COST_NS = 400.0

#: Raised by both engines once ``basic_stmts_executed`` reaches ``max_stmts``.
BUDGET_MSG = "statement budget exhausted (%d); probable infinite loop"


class SharedCell:
    """Storage for one EARTH-C shared variable."""

    __slots__ = ("value", "owner")

    def __init__(self, value: Value, owner: int):
        self.value = value
        self.owner = owner

    def __repr__(self) -> str:
        return f"SharedCell({self.value!r}@{self.owner})"


class Activation:
    """One function activation: frame plus outstanding split-phase
    writes that must complete before the activation returns."""

    __slots__ = ("function", "frame", "node", "outstanding")

    def __init__(self, function: s.SimpleFunction, node: int):
        self.function = function
        self.node = node
        self.frame: Dict[str, object] = {}
        self.outstanding: List[Slot] = []


class RunResult:
    """Outcome of one simulated execution."""

    def __init__(self, value: Value, time_ns: float, machine: Machine):
        self.value = value
        self.time_ns = time_ns
        self.stats = machine.stats
        self.output = list(machine.output)
        self.num_nodes = machine.num_nodes
        self.eu_busy_ns = list(machine.eu_busy_ns)
        self.su_busy_ns = list(machine.su_busy_ns)
        #: The tracer the machine ran with (``None`` unless tracing was
        #: requested); feed it to :mod:`repro.obs` for detailed metrics.
        self.tracer = machine.tracer
        #: The fault plan the machine ran under (``None`` for a clean
        #: run).  Drop/retry/dedup counts live in :attr:`stats`.
        self.faults = machine.faults

    def utilization(self) -> Dict[str, object]:
        """Per-node EU/SU busy time and utilization (always available;
        does not require tracing)."""
        from repro.obs.metrics import utilization_summary
        return utilization_summary(self.eu_busy_ns, self.su_busy_ns,
                                   self.time_ns)

    def __repr__(self) -> str:
        return (f"RunResult(value={self.value!r}, "
                f"time={self.time_ns / 1e6:.3f}ms, {self.stats!r})")


#: Engines: ``"codegen"`` emits specialized Python source for every
#: function (:mod:`repro.earth.codegen`); ``"ast"`` walks the SIMPLE
#: tree (the reference implementation below).  A run uses one of them
#: for all of its functions.  Both drive the same machine and must
#: produce identical results -- every engine must reproduce each
#: engine-free digest of tests/chaos/golden_runs.json, and
#: tests/earth/test_engine_equivalence.py covers the rest.  Defined here
#: and nowhere else: every layer that names an engine imports these.
ENGINES = ("codegen", "ast")
DEFAULT_ENGINE = "codegen"

#: Default statement budget (infinite-loop guard), for every layer
#: that runs a program.
DEFAULT_MAX_STMTS = 200_000_000


class WalkedFunction:
    """One SIMPLE function run by the AST walker (``engine="ast"``)
    behind the protocol generated functions expose
    (``.invoke(args, node, result_slot)``): the root fiber and placed
    calls start an activation through it."""

    __slots__ = ("function", "_interp")

    def __init__(self, interp: "Interpreter", function: s.SimpleFunction):
        self.function = function
        self._interp = interp

    def invoke(self, args: list, node: int, result_slot=None):
        value = yield from self._interp._exec_function(
            self.function, args, node)
        if result_slot is not None:
            self._interp.machine.signal(result_slot, value)
        return value


class Interpreter:
    """Executes one program on one machine.

    ``engine`` selects how SIMPLE statements are executed:
    ``"codegen"`` (default) emits Python source for each function once
    and runs that; ``"ast"`` interprets the tree directly.  Identical
    simulated behaviour, very different host speed.
    """

    __slots__ = ("program", "machine", "max_stmts", "engine",
                 "_globals_ready", "_finish_time",
                 "_shared_globals", "_codegen", "_applier")

    def __init__(self, program: s.SimpleProgram, machine: Machine,
                 max_stmts: int = DEFAULT_MAX_STMTS,
                 engine: str = DEFAULT_ENGINE):
        if engine not in ENGINES:
            raise InterpreterError(
                f"unknown engine {engine!r} (known: {', '.join(ENGINES)})")
        self.program = program
        self.machine = machine
        self.max_stmts = max_stmts
        self.engine = engine
        self._globals_ready = False
        self._finish_time = 0.0
        self._shared_globals: Dict[str, SharedCell] = {}
        self._codegen = None
        self._applier = machine.apply = Applier(
            machine.memory, machine.stats, machine.strict_nil_reads,
            machine.rcache, self._shared_cell)

    # ======================================================================
    # Entry point
    # ======================================================================

    def run(self, entry: str = "main",
            args: Sequence[Value] = ()) -> RunResult:
        result_slot = self.start(entry, args)
        try:
            self.machine.run()
        except RecursionError:   # a simulated call nests host frames
            raise InterpreterError(
                f"simulated call depth is more than the {self.engine} "
                f"engine can nest on this host (Python recursion limit "
                f"{sys.getrecursionlimit()})") from None
        return self.finish(entry, result_slot)

    def start(self, entry: str = "main",
              args: Sequence[Value] = (), root_fiber: bool = True
              ) -> Slot:
        """Set up the run without driving the machine: register and
        initialize globals and (unless ``root_fiber`` is false -- shard
        workers that do not own node 0) enqueue the root fiber.  The
        caller pumps the machine and then calls :meth:`finish`."""
        if entry not in self.program.functions:
            raise InterpreterError(f"no function named {entry!r}")
        self._init_globals()
        function = self._function(entry)
        result_slot = Slot(f"result:{entry}")
        if not root_fiber:
            return result_slot
        # An int argument was range-checked by RunConfig; a float
        # converts here, and C leaves an out-of-range conversion undefined.
        for param, arg in zip(self.program.functions[entry].params, args):
            if type(arg) is float and isinstance(param.type, ScalarType) \
                    and param.type.kind in ("int", "char") \
                    and not -2**31 <= int(arg) < 2**31:
                raise InterpreterError(
                    f"{entry}: argument {param.name} = {arg!r} is outside "
                    f"the C int range (-2147483648 .. 2147483647)")
        fiber = Fiber(function.invoke(list(args), 0, result_slot), 0,
                      name=entry)

        def capture(machine: Machine, time: float) -> None:
            self._finish_time = time

        fiber.on_done.append(capture)
        self.machine.add_fiber(fiber)
        return result_slot

    def finish(self, entry: str, result_slot: Slot) -> RunResult:
        if not result_slot.ready:
            raise InterpreterError(f"{entry}() never returned")
        return RunResult(result_slot.value, self._finish_time, self.machine)

    def _function(self, name: str):
        """``name`` as this engine runs it: an object with
        ``.invoke(args, node, result_slot=None)``."""
        if self.engine == "codegen":
            if self._codegen is None:
                from repro.earth.codegen import CodegenEngine
                self._codegen = CodegenEngine(self)
            return self._codegen.function(name)
        function = self.program.functions.get(name)
        if function is None:
            raise InterpreterError(f"call to unknown function {name!r}")
        return WalkedFunction(self, function)

    def placed_fiber(self, desc: tuple, fiber_id: int, name: str,
                     node: int) -> Fiber:
        """Rebuild a placed-call fiber from the recipe a shard port
        ships (the receiving half of a cross-shard spawn).  The
        description's result slot is usually a proxy whose real slot
        lives on the spawning shard."""
        fname, args, result_slot = desc
        fiber = Fiber(
            self._function(fname).invoke(list(args), node, result_slot),
            node, name=name)
        fiber.id = fiber_id
        return fiber

    def _busy(self, ns: float) -> None:
        self.machine.clock[0] += ns   # occupy the running fiber's EU

    # -- globals --------------------------------------------------------------------

    def _init_globals(self) -> None:
        if self._globals_ready:
            return
        self._globals_ready = True
        memory = self.machine.memory
        for name, var in self.program.globals.items():
            words = max(var.type.size_words(), 1)
            memory.register_global(name, words)
            init = self.program.global_inits.get(name)
            if init is not None:
                address = memory.global_address(name)
                memory.write_word(address, self._coerce(var.type, init))
                if var.type.size_words() == 2:
                    memory.write_word(address + 1, FILLER)

    def _global_cell(self, name: str) -> Optional[s.SimpleVar]:
        return self.program.globals.get(name)

    # ======================================================================
    # Function execution
    # ======================================================================

    def _exec_function(self, func: s.SimpleFunction, args: List[Value],
                       node: int):
        act = Activation(func, node)
        if len(args) != len(func.params):
            raise InterpreterError(
                f"{func.name}: expected {len(func.params)} args, "
                f"got {len(args)}")
        for param, arg in zip(func.params, args):
            act.frame[param.name] = self._coerce(param.type, arg)
        for name, var in func.variables.items():
            if var.kind == "param":
                continue
            act.frame[name] = self._initial_value(var, node)
        signal = yield from self._exec_seq(act, func.body)
        # EARTH frames synchronize outstanding split-phase writes before
        # the activation disappears.
        for slot in act.outstanding:
            if not slot.ready:
                yield slot
        act.outstanding.clear()
        if signal is not None:
            return signal[1]
        return self._zero_of(func.return_type)

    def _initial_value(self, var: s.SimpleVar, node: int):
        if var.is_shared:
            return SharedCell(self._zero_of(var.type), node)
        if var.type.is_struct:
            return [0] * var.type.size_words()
        return self._zero_of(var.type)

    @staticmethod
    def _zero_of(type: Type) -> Value:
        if isinstance(type, ScalarType) and type.kind in ("float", "double"):
            return 0.0
        return 0

    # ======================================================================
    # Statement execution
    # ======================================================================

    def _exec_seq(self, act: Activation, seq: s.SeqStmt):
        for stmt in seq.stmts:
            signal = yield from self._exec_stmt(act, stmt)
            if signal is not None:
                return signal
        return None

    def _exec_stmt(self, act: Activation, stmt: s.Stmt):
        if isinstance(stmt, s.BasicStmt):
            return (yield from self._exec_basic(act, stmt))
        if isinstance(stmt, s.SeqStmt):
            return (yield from self._exec_seq(act, stmt))
        if isinstance(stmt, s.IfStmt):
            yield from self._sync_names(act, stmt.cond.variables())
            self._busy(self.machine.params.local_stmt_ns)
            if self._eval_cond(act, stmt.cond):
                return (yield from self._exec_seq(act, stmt.then_seq))
            return (yield from self._exec_seq(act, stmt.else_seq))
        if isinstance(stmt, s.WhileStmt):
            while True:
                yield from self._sync_names(act, stmt.cond.variables())
                self._busy(self.machine.params.local_stmt_ns)
                if not self._eval_cond(act, stmt.cond):
                    return None
                signal = yield from self._exec_seq(act, stmt.body)
                if signal is not None:
                    return signal
        if isinstance(stmt, s.DoStmt):
            while True:
                signal = yield from self._exec_seq(act, stmt.body)
                if signal is not None:
                    return signal
                yield from self._sync_names(act, stmt.cond.variables())
                self._busy(self.machine.params.local_stmt_ns)
                if not self._eval_cond(act, stmt.cond):
                    return None
        if isinstance(stmt, s.SwitchStmt):
            yield from self._sync_names(
                act, stmt.scrutinee.variables())
            self._busy(self.machine.params.local_stmt_ns)
            value = self._eval_operand(act, stmt.scrutinee)
            for case_value, seq in stmt.cases:
                if value == case_value:
                    return (yield from self._exec_seq(act, seq))
            if stmt.default is not None:
                return (yield from self._exec_seq(act, stmt.default))
            return None
        if isinstance(stmt, s.ParStmt):
            return (yield from self._exec_par(act, stmt))
        if isinstance(stmt, s.ForallStmt):
            return (yield from self._exec_forall(act, stmt))
        raise InterpreterError(f"unknown statement {stmt!r}")

    # -- parallel constructs ------------------------------------------------------------

    def _exec_par(self, act: Activation, stmt: s.ParStmt):
        join = JoinCounter(len(stmt.branches))

        def branch_body(branch: s.SeqStmt):
            signal = yield from self._exec_seq(act, branch)
            if signal is not None:
                raise InterpreterError(
                    f"{act.function.name}: return inside a parallel "
                    f"sequence branch is not supported")

        for branch in stmt.branches:
            fiber = Fiber(branch_body(branch), act.node,
                          name=f"{act.function.name}:par")
            fiber.on_done.append(join.child_done)
            self.machine.spawn(fiber)
        if not join.slot.ready:
            yield join.slot
        self._busy(self.machine.params.join_ns)
        return None

    def _exec_forall(self, act: Activation, stmt: s.ForallStmt):
        signal = yield from self._exec_seq(act, stmt.init)
        if signal is not None:
            return signal
        children: List[Fiber] = []
        while True:
            yield from self._sync_names(act, stmt.cond.variables())
            self._busy(self.machine.params.local_stmt_ns)
            if not self._eval_cond(act, stmt.cond):
                break
            iter_act = Activation(act.function, act.node)
            iter_act.frame = self._copy_frame(act.frame)

            def iteration(iact=iter_act):
                signal = yield from self._exec_seq(iact, stmt.body)
                for slot in iact.outstanding:
                    if not slot.ready:
                        yield slot
                if signal is not None:
                    raise InterpreterError(
                        f"{act.function.name}: return inside forall body "
                        f"is not supported")

            fiber = Fiber(iteration(), act.node,
                          name=f"{act.function.name}:forall")
            children.append(fiber)
            self.machine.spawn(fiber)
            signal = yield from self._exec_seq(act, stmt.step)
            if signal is not None:
                return signal
        join = JoinCounter(len(children))
        for fiber in children:
            if fiber.done:
                join.child_done(self.machine, 0.0)
            else:
                fiber.on_done.append(join.child_done)
        if not join.slot.ready:
            yield join.slot
        self._busy(self.machine.params.join_ns)
        return None

    @staticmethod
    def _copy_frame(frame: Dict[str, object]) -> Dict[str, object]:
        copy: Dict[str, object] = {}
        for name, value in frame.items():
            if isinstance(value, list):
                copy[name] = list(value)
            else:
                copy[name] = value  # scalars, SharedCells, Slots
        return copy

    # ======================================================================
    # Basic statements
    # ======================================================================

    def _exec_basic(self, act: Activation, stmt: s.BasicStmt):
        # The statement counter is the budget.
        stats = self.machine.stats
        stats.basic_stmts_executed += 1
        if stats.basic_stmts_executed >= self.max_stmts:
            raise InterpreterError(BUDGET_MSG % self.max_stmts)
        yield from self._sync_uses(act, stmt)
        tracer = self.machine.tracer
        if tracer is not None:
            # Callsite attribution: remote ops issued while this
            # statement runs are charged to (function, label).  Set
            # after sync-on-use: while this fiber waits, others move it.
            tracer.current_site = (act.function.name, stmt.label)

        if isinstance(stmt, s.AssignStmt):
            return (yield from self._exec_assign(act, stmt))
        if isinstance(stmt, s.CallStmt):
            return (yield from self._exec_call(act, stmt))
        if isinstance(stmt, s.AllocStmt):
            return self._exec_alloc(act, stmt)
        if isinstance(stmt, s.BlkmovStmt):
            return (yield from self._exec_blkmov(act, stmt))
        if isinstance(stmt, s.SharedOpStmt):
            return (yield from self._exec_shared(act, stmt))
        if isinstance(stmt, s.ReturnStmt):
            self._busy(self.machine.params.local_stmt_ns)
            value: Value = 0
            if stmt.value is not None:
                value = self._eval_operand(act, stmt.value)
            return ("ret", value)
        if isinstance(stmt, s.PrintStmt):
            self._busy(1000.0)
            values = [self._eval_operand(act, arg) for arg in stmt.args]
            try:
                text = stmt.format % tuple(values)
            except (TypeError, ValueError) as exc:
                raise InterpreterError(
                    f"printf format error: {exc}") from exc
            self.machine.print(text)
            return None
        if isinstance(stmt, s.NopStmt):
            return None
        raise InterpreterError(f"unknown basic statement {stmt!r}")

    def _sync_uses(self, act: Activation, stmt: s.BasicStmt):
        """Wait for pending split-phase values this statement consumes."""
        names = basic_uses(stmt)
        if isinstance(stmt, s.AssignStmt) and \
                isinstance(stmt.lhs, s.StructFieldWriteLV):
            # Writing into a bcomm buffer needs the buffer delivered.
            names = set(names)
            names.add(stmt.lhs.struct_var)
        if isinstance(stmt, s.BlkmovStmt) and stmt.dst[0] == "local":
            # Overwriting a buffer that is itself still in flight from a
            # previous split-phase blkmov requires it delivered first.
            names = set(names)
            names.add(stmt.dst[1])
        # Sorted: ``basic_uses`` is a hash-ordered set, and wait order
        # is observable through simulated time whenever two slots are
        # pending at once -- it must not depend on the hash seed.
        yield from self._sync_names(act, sorted(names))

    def _sync_names(self, act: Activation, names):
        for name in names:
            value = act.frame.get(name)
            if isinstance(value, Slot):
                self._land(act, name, value.value if value.ready
                           else (yield value))

    def _land(self, act: Activation, name: str, value) -> None:
        """What a split-phase operation into ``name`` leaves in the
        frame: the pending Slot itself, raw, for sync-on-use; its value
        (delivered, or complete at issue) coerced to the variable."""
        if type(value) is not Slot:
            var = act.function.variables.get(name)
            if var is not None and not isinstance(value, list):
                value = self._coerce(var.type, value)
        act.frame[name] = value

    # -- assignments -------------------------------------------------------------------

    def _exec_assign(self, act: Activation, stmt: s.AssignStmt):
        params = self.machine.params
        rhs = stmt.rhs
        lhs = stmt.lhs

        # Remote/heap read on the right-hand side?
        if isinstance(rhs, (s.FieldReadRhs, s.DerefReadRhs,
                            s.IndexReadRhs)):
            self._busy(params.local_stmt_ns)
            address, value_type = self._access_address(act, rhs)
            if not getattr(rhs, "remote", False):
                value = self._load_local(address, act)
                yield from self._store_lvalue(act, lhs, value, value_type)
                return None
            target = node_of(address) if address != 0 else act.node
            value = self.machine.issue(
                "read", target, value_type.size_words() or 1,
                ("read", address), f"read@{stmt.label}", address)
            if stmt.split_phase and isinstance(lhs, s.VarLV):
                self._land(act, lhs.name, value)
                return None
            if type(value) is Slot:
                value = value.value if value.ready else (yield value)
            yield from self._store_lvalue(act, lhs, value,
                                          stmt.split_phase)
            return None

        # Plain computation on the right.
        self._busy(params.local_stmt_ns)
        value = self._eval_rhs(act, rhs)
        yield from self._store_lvalue(act, lhs, value, stmt.split_phase)
        return None

    def _store_lvalue(self, act: Activation, lhs: s.LValue, value,
                      split_phase: bool):
        params = self.machine.params
        if isinstance(lhs, s.VarLV):
            self._store_var(act, lhs.name, value)
            return
        if isinstance(lhs, s.StructFieldWriteLV):
            struct_var = act.frame[lhs.struct_var]
            if not isinstance(struct_var, list):
                raise InterpreterError(
                    f"{lhs.struct_var!r} is not a struct buffer")
            struct_type = act.function.var_type(lhs.struct_var)
            offset, field_type = lhs.path.resolve(struct_type)  # type: ignore[arg-type]
            coerced = self._coerce(field_type, value)
            struct_var[offset] = coerced
            if field_type.size_words() == 2:
                struct_var[offset + 1] = FILLER
            return
        # Heap write (field/deref/index).
        address, field_type = self._access_address(act, lhs)
        if address == 0:
            raise MemoryFault(
                f"{act.function.name}: nil dereference (write)")
        if not getattr(lhs, "remote", False) \
                and node_of(address) != act.node:
            raise InterpreterError(
                f"{act.function.name}: write compiled as local touches "
                f"node {node_of(address)} from node {act.node} -- "
                f"locality analysis or `local` declaration is wrong")
        coerced = self._coerce(field_type, value)
        double = field_type.size_words() == 2
        if not getattr(lhs, "remote", False):
            memory = self.machine.memory
            memory.write_word(address, coerced)
            if double:
                memory.write_word(address + 1, FILLER)
            return
        slot = self.machine.issue(
            "write", node_of(address), field_type.size_words() or 1,
            ("write", address, coerced, double), "write", address)
        if type(slot) is Slot:  # in flight
            if split_phase:
                act.outstanding.append(slot)
            elif not slot.ready:
                yield slot

    # -- address & value helpers -----------------------------------------------------------

    def _access_address(self, act: Activation, access
                        ) -> Tuple[int, Type]:
        """Address and value type of a field/deref/index access."""
        func = act.function
        if isinstance(access, (s.FieldReadRhs, s.FieldWriteLV)):
            base = self._pointer_value(act, access.base)
            ptr_type = self._name_type(func, access.base)
            struct = ptr_type.target  # type: ignore[union-attr]
            if not isinstance(struct, StructType):
                raise InterpreterError(
                    f"field access through non-struct pointer "
                    f"{access.base!r}")
            offset, field_type = access.path.resolve(struct)
            address = base + offset if base != 0 else 0
            return address, field_type
        if isinstance(access, (s.DerefReadRhs, s.DerefWriteLV)):
            base = self._pointer_value(act, access.base)
            ptr_type = self._name_type(func, access.base)
            return base, ptr_type.target  # type: ignore[union-attr]
        if isinstance(access, (s.IndexReadRhs, s.IndexWriteLV)):
            base = self._pointer_value(act, access.base)
            index = self._eval_operand(act, access.index)
            ptr_type = self._name_type(func, access.base)
            elem = ptr_type.target  # type: ignore[union-attr]
            address = base + int(index) if base != 0 else 0
            return address, elem
        raise InterpreterError(f"not an access: {access!r}")

    def _name_type(self, func: s.SimpleFunction, name: str) -> Type:
        var = func.variables.get(name)
        if var is None:
            var = self.program.globals.get(name)
        if var is None:
            raise InterpreterError(f"unknown variable {name!r}")
        return var.type

    def _pointer_value(self, act: Activation, name: str) -> int:
        value = self._read_var(act, name)
        if not isinstance(value, int):
            raise InterpreterError(
                f"{name!r} does not hold a pointer: {value!r}")
        return value

    def _load_local(self, address: int, act: Activation):
        if address == 0:
            raise MemoryFault(
                f"{act.function.name}: nil dereference (local read)")
        if node_of(address) != act.node:
            raise InterpreterError(
                f"{act.function.name}: access compiled as local touches "
                f"node {node_of(address)} from node {act.node} -- "
                f"locality analysis or `local` declaration is wrong")
        return _normalize_word(self.machine.memory.read_word(address))

    # -- variables ----------------------------------------------------------------------------

    def _read_var(self, act: Activation, name: str):
        if name in act.frame:
            value = act.frame[name]
            if isinstance(value, Slot):
                raise InterpreterError(
                    f"unsynchronized use of pending value {name!r}")
            if isinstance(value, SharedCell):
                raise InterpreterError(
                    f"shared variable {name!r} read directly")
            return value
        cell = self._global_cell(name)
        if cell is not None:
            address = self.machine.memory.global_address(name)
            return _normalize_word(self.machine.memory.read_word(address))
        raise InterpreterError(f"unknown variable {name!r}")

    def _store_var(self, act: Activation, name: str, value) -> None:
        if name in act.frame:
            var = act.function.variables.get(name)
            if var is not None:
                value = self._coerce(var.type, value)
            act.frame[name] = value
            return
        cell = self._global_cell(name)
        if cell is not None:
            address = self.machine.memory.global_address(name)
            coerced = self._coerce(cell.type, value)
            self.machine.memory.write_word(address, coerced)
            if cell.type.size_words() == 2:
                self.machine.memory.write_word(address + 1, FILLER)
            return
        raise InterpreterError(f"unknown variable {name!r}")

    def _coerce(self, type: Type, value):
        if isinstance(type, ScalarType):
            if type.kind == "int":
                return _c_int(value)
            if type.kind == "char":
                return _c_int(value) & 0xFF
            if type.kind in ("float", "double"):
                return float(value)
            return value
        if isinstance(type, PointerType):
            return int(value)
        return value

    # -- expression evaluation (non-yielding) ----------------------------------------------------

    def _eval_operand(self, act: Activation, operand: s.Operand):
        if isinstance(operand, s.Const):
            return operand.value
        if isinstance(operand, s.VarUse):
            return self._read_var(act, operand.name)
        raise InterpreterError(f"unknown operand {operand!r}")

    def _eval_cond(self, act: Activation, cond: s.CondExpr) -> bool:
        left = self._eval_operand(act, cond.left)
        if cond.op is None:
            return bool(left)
        right = self._eval_operand(act, cond.right)
        return bool(_apply_binop(cond.op, left, right))

    def _eval_rhs(self, act: Activation, rhs: s.Rhs):
        if isinstance(rhs, s.OperandRhs):
            return self._eval_operand(act, rhs.operand)
        if isinstance(rhs, s.UnaryRhs):
            value = self._eval_operand(act, rhs.operand)
            if rhs.op == "-":
                return -value
            if rhs.op == "!":
                return 0 if value else 1
            if rhs.op == "~":
                return ~_c_int(value)
            raise InterpreterError(f"unknown unary op {rhs.op!r}")
        if isinstance(rhs, s.BinaryRhs):
            left = self._eval_operand(act, rhs.left)
            right = self._eval_operand(act, rhs.right)
            return _apply_binop(rhs.op, left, right)
        if isinstance(rhs, s.ConvertRhs):
            value = self._eval_operand(act, rhs.operand)
            return self._coerce(ScalarType(rhs.kind), value)
        if isinstance(rhs, s.AddrOfRhs):
            if self.machine.memory.has_global(rhs.var):
                return self.machine.memory.global_address(rhs.var)
            raise InterpreterError(
                f"&{rhs.var}: only globals are addressable")
        if isinstance(rhs, s.FieldAddrRhs):
            base = self._pointer_value(act, rhs.base)
            if base == 0:
                raise MemoryFault("&(nil->field)")
            ptr_type = self._name_type(act.function, rhs.base)
            offset, _ = rhs.path.resolve(ptr_type.target)  # type: ignore[union-attr]
            return base + offset
        if isinstance(rhs, s.StructFieldReadRhs):
            struct_var = act.frame.get(rhs.struct_var)
            if not isinstance(struct_var, list):
                raise InterpreterError(
                    f"{rhs.struct_var!r} is not a struct buffer")
            struct_type = act.function.var_type(rhs.struct_var)
            offset, field_type = rhs.path.resolve(struct_type)  # type: ignore[arg-type]
            return self._coerce(field_type,
                                _normalize_word(struct_var[offset]))
        raise InterpreterError(f"unexpected rhs {rhs!r}")

    # -- calls ------------------------------------------------------------------------------------

    def _exec_call(self, act: Activation, stmt: s.CallStmt):
        params = self.machine.params
        name = stmt.func
        if name in _MATH_BUILTINS:
            self._busy(_MATH_COST_NS)
            arg = self._eval_operand(act, stmt.args[0])
            value = _MATH_BUILTINS[name](float(arg))
            if stmt.target is not None:
                self._store_var(act, stmt.target, value)
            return None
        if name == "num_nodes":
            self._busy(params.local_stmt_ns)
            if stmt.target is not None:
                self._store_var(act, stmt.target, self.machine.num_nodes)
            return None
        if name == "my_node":
            self._busy(params.local_stmt_ns)
            if stmt.target is not None:
                self._store_var(act, stmt.target, act.node)
            return None
        if name == "owner_of":
            self._busy(params.local_stmt_ns)
            pointer = self._eval_operand(act, stmt.args[0])
            if stmt.target is not None:
                self._store_var(act, stmt.target, node_of(int(pointer)))
            return None

        callee = self.program.functions.get(name)
        if callee is None:
            raise InterpreterError(f"call to unknown function {name!r}")
        args = [self._eval_operand(act, arg) for arg in stmt.args]
        target_node = self._placement_node(act, stmt.placement)

        if stmt.placement is None:
            # Ordinary call: runs inline in the current fiber.
            self._busy(params.call_overhead_ns)
            value = yield from self._exec_function(callee, args,
                                                   act.node)
            if stmt.target is not None:
                self._store_var(act, stmt.target, value)
            return None

        # Placed invocation (EARTH INVOKE token): always a fresh fiber,
        # even when the target is the local node -- the caller parks and
        # its EU runs other ready fibers (so sibling parallel-sequence
        # branches can launch their own work immediately).
        if target_node != act.node:
            self.machine.stats.remote_calls += 1
        result_slot = Slot(f"call:{name}")
        # Pin the consuming node: a fulfill arriving from another node
        # pays the call-return network leg.
        result_slot.node = act.node
        fiber = Fiber(self._function(name).invoke(args, target_node,
                                                  result_slot),
                      target_node, name=name)
        fiber.spawn_desc = (name, list(args), result_slot)
        # The cross-node request hop rides the network (the machine
        # delays the remote spawn by ``read_one_way_ns``); the caller's
        # EU only pays the issue overhead.
        self._busy(params.call_overhead_ns)
        self.machine.spawn(fiber)
        value = result_slot.value if result_slot.ready \
            else (yield result_slot)
        if stmt.target is not None:
            self._store_var(act, stmt.target, value)
        return None

    def _placement_node(self, act: Activation, placement) -> int:
        if placement is None:
            return act.node
        if placement[0] == "owner_of":
            pointer = self._pointer_value(act, placement[1])
            if pointer == 0:
                return act.node
            return node_of(pointer)
        if placement[0] == "home":
            return act.node
        if placement[0] == "node":
            value = int(self._eval_operand(act, placement[1]))
            return value % self.machine.num_nodes
        raise InterpreterError(f"unknown placement {placement!r}")

    # -- malloc / blkmov / shared ------------------------------------------------------------------

    def _exec_alloc(self, act: Activation, stmt: s.AllocStmt) -> None:
        words = int(self._eval_operand(act, stmt.words))
        if stmt.node is not None:
            target = int(self._eval_operand(act, stmt.node)) \
                % self.machine.num_nodes
        else:
            target = act.node
        # An allocation always completes at issue.
        self._store_var(act, stmt.target, self.machine.issue(
            "malloc", target, words,
            ("alloc", target, words, act.node), "malloc"))

    def _endpoint(self, act: Activation, endpoint):
        """One blkmov endpoint as the applier's classification takes
        it: a global address, or ``(frame buffer, offset)``."""
        kind, name, offset = endpoint
        if kind == "ptr":
            base = self._pointer_value(act, name)
            return base + offset if base != 0 else 0
        buffer = act.frame[name]
        if not isinstance(buffer, list):
            raise InterpreterError(f"{name!r} is not a struct buffer")
        return (buffer, offset)

    def _exec_blkmov(self, act: Activation, stmt: s.BlkmovStmt):
        words = stmt.words
        src = self._endpoint(act, stmt.src)
        dst = self._endpoint(act, stmt.dst)
        dst_local = stmt.dst[0] == "local"
        lazy_local_fill = (dst_local and stmt.split_phase
                           and stmt.dst[2] == 0)
        target, operation, post = self._applier.blkmov(
            src, dst, words, act.node, lazy_local_fill)
        result = self.machine.issue(
            "blkmov", target, words, operation, f"blkmov@{stmt.label}",
            None if dst_local else dst, post)

        if dst_local:
            if lazy_local_fill:
                # Consumers synchronize on the buffer's name and the
                # delivered word list replaces it.
                self._land(act, stmt.dst[1], result)
                return None
            buffer, offset = dst
            if type(result) is Slot:
                result = result.value if result.ready else (yield result)
            buffer[offset:offset + words] = result
        elif type(result) is Slot:  # in flight
            if stmt.split_phase:
                act.outstanding.append(result)
            elif not result.ready:
                yield result
        return None

    # -- shared variables ----------------------------------------------------------------------------

    def _exec_shared(self, act: Activation, stmt: s.SharedOpStmt):
        cell = act.frame.get(stmt.shared_var)
        is_global = cell is None
        if cell is None:
            gvar = self._global_cell(stmt.shared_var)
            if gvar is None or not gvar.is_shared:
                raise InterpreterError(
                    f"unknown shared variable {stmt.shared_var!r}")
            cell = self._shared_global(stmt.shared_var, gvar)
        if not isinstance(cell, SharedCell):
            raise InterpreterError(
                f"{stmt.shared_var!r} is not a shared variable")
        value = None
        if stmt.value is not None:
            value = self._eval_operand(act, stmt.value)
        op = stmt.op
        # A global cell travels by name; a frame-declared cell is a
        # live object the owning shard cannot rebuild, and its kind
        # says so (a ShardError at shipment).
        operation = (("sharedg", stmt.shared_var, op, value) if is_global
                     else ("sharedf", cell, op, value))
        result = self.machine.issue("shared", cell.owner, 1, operation,
                                    f"shared:{op}")
        if op == "valueof":
            if type(result) is Slot:
                result = result.value if result.ready else (yield result)
            self._store_var(act, stmt.target, result)
        elif type(result) is Slot:  # in flight
            act.outstanding.append(result)
        return None

    def _shared_global(self, name: str, gvar: s.SimpleVar) -> SharedCell:
        cell = self._shared_globals.get(name)
        if cell is None:
            cell = SharedCell(self._zero_of(gvar.type), 0)
            self._shared_globals[name] = cell
        return cell

    def _shared_cell(self, name: str) -> SharedCell:
        """The cell a ``sharedg`` operation names (the applier's
        resolver; the name may have arrived in a shard message)."""
        gvar = self._global_cell(name)
        if gvar is None or not gvar.is_shared:
            raise InterpreterError(f"unknown shared global {name!r}")
        return self._shared_global(name, gvar)


#: C conversion to int truncates toward zero, and so does Python's.
_c_int = int


def _apply_binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, float) or isinstance(right, float):
            if right == 0:
                raise InterpreterError("division by zero")
            return left / right
        if right == 0:
            raise InterpreterError("division by zero")
        return _c_div(left, right)
    if op == "%":
        if right == 0:
            raise InterpreterError("modulo by zero")
        return _c_mod(int(left), int(right))
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "&":
        return int(left) & int(right)
    if op == "|":
        return int(left) | int(right)
    if op == "^":
        return int(left) ^ int(right)
    if op == "<<":
        return int(left) << int(right)
    if op == ">>":
        return int(left) >> int(right)
    raise InterpreterError(f"unknown operator {op!r}")


def _c_div(a: int, b: int) -> int:
    """C integer division truncates toward zero."""
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    return q


def _c_mod(a: int, b: int) -> int:
    """C remainder has the sign of the dividend."""
    return a - _c_div(a, b) * b
