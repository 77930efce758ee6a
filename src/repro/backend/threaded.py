"""Threaded-C backend (Phase III of the EARTH-McCAT compiler).

The real compiler partitions each function into *fibers* (EARTH threads)
that synchronize on split-phase completions: a fiber runs to completion,
and consumers of outstanding split-phase values go into later fibers
whose sync slots count the completions they need (paper Sections 2.3,
5.1).  The simulator executes SIMPLE directly with sync-on-use
semantics, which is observationally the same schedule; this backend
exists to *materialize* the threaded program -- for inspection, for
tests of the partitioning rules, and to document what Phase III would
emit.

The partitioning rule implemented here is the standard dataflow one:

* a split-phase operation (``GET_SYNC`` / ``BLKMOV_SYNC`` /
  ``DATA_SYNC``) names a sync slot of the fiber that consumes its value;
* a statement that uses a value whose producing operation is still
  outstanding starts a new fiber, with one sync-slot count per
  outstanding producer it consumes;
* compound statements (loops, conditionals, parallel constructs) close
  the current fiber -- control transfers re-enter fiber 0 of the
  corresponding sub-program.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.simple import nodes as s
from repro.simple.printer import basic_text
from repro.simple.traversal import basic_uses


class Fiber:
    """One generated fiber: statements plus the sync slots it waits on."""

    def __init__(self, index: int):
        self.index = index
        self.lines: List[str] = []
        self.sync_count = 0

    def __repr__(self) -> str:
        return (f"Fiber({self.index}, {len(self.lines)} ops, "
                f"sync={self.sync_count})")


class ThreadedFunction:
    """The fiber partition of one function."""

    def __init__(self, name: str):
        self.name = name
        self.fibers: List[Fiber] = [Fiber(0)]

    @property
    def current(self) -> Fiber:
        return self.fibers[-1]

    def new_fiber(self) -> Fiber:
        fiber = Fiber(len(self.fibers))
        self.fibers.append(fiber)
        return fiber

    def render(self) -> str:
        out = [f"THREADED {self.name}"]
        for fiber in self.fibers:
            out.append(f"  FIBER_{fiber.index}: "
                       f"SYNC_SLOTS({fiber.sync_count})")
            for line in fiber.lines:
                out.append(f"    {line}")
            out.append("    END_FIBER")
        out.append("END_THREADED")
        return "\n".join(out)


class ThreadGenerator:
    """Generates the Threaded-C form of one SIMPLE function."""

    def __init__(self, func: s.SimpleFunction):
        self.func = func
        self.result = ThreadedFunction(func.name)
        #: Variables whose split-phase producer is outstanding in the
        #: current fiber, mapped to the producing op spelling.
        self._outstanding: Dict[str, str] = {}

    def run(self) -> ThreadedFunction:
        self._emit_seq(self.func.body)
        return self.result

    # -- partitioning ------------------------------------------------------------

    def _cut_for_uses(self, names: Set[str]) -> None:
        """Start a new fiber if any used name is outstanding."""
        needed = [name for name in names if name in self._outstanding]
        if not needed:
            return
        fiber = self.result.new_fiber()
        fiber.sync_count = len(needed)
        for name in needed:
            del self._outstanding[name]

    def _close_fiber(self) -> None:
        if self._outstanding:
            # Values produced but consumed beyond the construct: they
            # synchronize at the join of the next fiber.
            fiber = self.result.new_fiber()
            fiber.sync_count = len(self._outstanding)
            self._outstanding.clear()
        elif self.result.current.lines:
            self.result.new_fiber()

    def _emit(self, line: str) -> None:
        self.result.current.lines.append(line)

    # -- statement emission -----------------------------------------------------------

    def _emit_seq(self, seq: s.SeqStmt) -> None:
        for stmt in seq.stmts:
            self._emit_stmt(stmt)

    def _emit_stmt(self, stmt: s.Stmt) -> None:
        if isinstance(stmt, s.BasicStmt):
            self._emit_basic(stmt)
            return
        # Compound statements: close the fiber, emit a control marker,
        # and recurse (sub-fibers are shown inline for readability).
        if isinstance(stmt, s.IfStmt):
            self._cut_for_uses(set(stmt.cond.variables()))
            self._emit(f"IF ({stmt.cond})")
            self._emit_seq(stmt.then_seq)
            if stmt.else_seq.stmts:
                self._emit("ELSE")
                self._emit_seq(stmt.else_seq)
            self._emit("ENDIF")
        elif isinstance(stmt, s.WhileStmt):
            self._cut_for_uses(set(stmt.cond.variables()))
            self._emit(f"WHILE ({stmt.cond})")
            self._close_fiber()
            self._emit_seq(stmt.body)
            self._cut_for_uses(set(stmt.cond.variables()))
            self._emit("ENDWHILE")
        elif isinstance(stmt, s.DoStmt):
            self._emit("DO")
            self._close_fiber()
            self._emit_seq(stmt.body)
            self._cut_for_uses(set(stmt.cond.variables()))
            self._emit(f"WHILE ({stmt.cond})")
        elif isinstance(stmt, s.SwitchStmt):
            self._cut_for_uses(set(stmt.scrutinee.variables()))
            self._emit(f"SWITCH ({stmt.scrutinee})")
            for value, seq in stmt.cases:
                self._emit(f"CASE {value}:")
                self._emit_seq(seq)
            if stmt.default is not None:
                self._emit("DEFAULT:")
                self._emit_seq(stmt.default)
            self._emit("ENDSWITCH")
        elif isinstance(stmt, s.ParStmt):
            self._emit(f"SPAWN_PAR({len(stmt.branches)})")
            for branch in stmt.branches:
                self._emit("PAR_BRANCH:")
                self._emit_seq(branch)
            self._close_fiber()
            self.result.current.sync_count += len(stmt.branches)
            self._emit("JOIN_PAR")
        elif isinstance(stmt, s.ForallStmt):
            self._emit("FORALL_INIT")
            self._emit_seq(stmt.init)
            self._emit(f"FORALL_SPAWN ({stmt.cond})")
            self._emit_seq(stmt.body)
            self._emit("FORALL_STEP")
            self._emit_seq(stmt.step)
            self._close_fiber()
            self.result.current.sync_count += 1
            self._emit("JOIN_FORALL")
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {stmt!r}")

    def _emit_basic(self, stmt: s.BasicStmt) -> None:
        uses = basic_uses(stmt)
        if isinstance(stmt, s.AssignStmt) and \
                isinstance(stmt.lhs, s.StructFieldWriteLV):
            uses = set(uses)
            uses.add(stmt.lhs.struct_var)
        self._cut_for_uses(uses)

        if isinstance(stmt, s.AssignStmt) and stmt.split_phase:
            read = stmt.remote_read()
            write = stmt.remote_write()
            if read is not None and isinstance(stmt.lhs, s.VarLV):
                slot = f"SLOT_{stmt.lhs.name}"
                source = basic_text(stmt).split("=", 1)[1]
                source = source.strip().rstrip(";")
                self._emit(f"GET_SYNC({source}, {stmt.lhs.name}, {slot})")
                self._outstanding[stmt.lhs.name] = slot
                return
            if write is not None:
                text = basic_text(stmt).strip().rstrip(";")
                self._emit(f"DATA_SYNC({text})")
                return
        if isinstance(stmt, s.BlkmovStmt) and stmt.split_phase:
            src = _endpoint_text(stmt.src)
            dst = _endpoint_text(stmt.dst)
            self._emit(f"BLKMOV_SYNC({src}, {dst}, {stmt.words})")
            if stmt.dst[0] == "local":
                self._outstanding[stmt.dst[1]] = f"SLOT_{stmt.dst[1]}"
            return
        if isinstance(stmt, s.CallStmt) and stmt.placement is not None:
            text = basic_text(stmt).strip().rstrip(";")
            self._emit(f"INVOKE_REMOTE({text})")
            if stmt.target is not None:
                self._outstanding[stmt.target] = f"SLOT_{stmt.target}"
            return
        text = basic_text(stmt).strip()
        if text:
            self._emit(text)


def _endpoint_text(endpoint: Tuple[str, str, int]) -> str:
    kind, name, offset = endpoint
    base = name if kind == "ptr" else f"&{name}"
    return f"{base}+{offset}" if offset else base


def generate_threaded(func: s.SimpleFunction) -> ThreadedFunction:
    """Partition one function into fibers."""
    return ThreadGenerator(func).run()


def render_threaded_program(program: s.SimpleProgram) -> str:
    """The Threaded-C listing of a whole program."""
    chunks = [generate_threaded(func).render()
              for func in program.functions.values()]
    return "\n\n".join(chunks)
