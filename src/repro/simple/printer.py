"""Pretty-printer for SIMPLE programs.

Output follows the paper's listings: one basic statement per line with its
``S<label>`` tag, remote accesses marked ``[R]`` on the right margin, and
structured statements indented.  The printer is deterministic, so tests
compare printed forms.
"""

from __future__ import annotations

from typing import List, Optional

from repro.simple import nodes as s


def _operand(op: s.Operand) -> str:
    return str(op)


def _rhs(rhs: s.Rhs) -> str:
    if isinstance(rhs, s.OperandRhs):
        return _operand(rhs.operand)
    if isinstance(rhs, s.UnaryRhs):
        return f"{rhs.op}{_operand(rhs.operand)}"
    if isinstance(rhs, s.BinaryRhs):
        return f"{_operand(rhs.left)} {rhs.op} {_operand(rhs.right)}"
    if isinstance(rhs, s.ConvertRhs):
        return f"({rhs.kind}) {_operand(rhs.operand)}"
    if isinstance(rhs, s.AddrOfRhs):
        return f"&{rhs.var}"
    if isinstance(rhs, s.FieldAddrRhs):
        return f"&({rhs.base}->{rhs.path})"
    if isinstance(rhs, s.FieldReadRhs):
        return f"{rhs.base}->{rhs.path}"
    if isinstance(rhs, s.DerefReadRhs):
        return f"*{rhs.base}"
    if isinstance(rhs, s.IndexReadRhs):
        return f"{rhs.base}[{_operand(rhs.index)}]"
    if isinstance(rhs, s.StructFieldReadRhs):
        return f"{rhs.struct_var}.{rhs.path}"
    raise TypeError(f"unknown rhs {rhs!r}")


def _lvalue(lv: s.LValue) -> str:
    if isinstance(lv, s.VarLV):
        return lv.name
    if isinstance(lv, s.FieldWriteLV):
        return f"{lv.base}->{lv.path}"
    if isinstance(lv, s.DerefWriteLV):
        return f"*{lv.base}"
    if isinstance(lv, s.IndexWriteLV):
        return f"{lv.base}[{_operand(lv.index)}]"
    if isinstance(lv, s.StructFieldWriteLV):
        return f"{lv.struct_var}.{lv.path}"
    raise TypeError(f"unknown lvalue {lv!r}")


def _endpoint(ep) -> str:
    kind, name, offset = ep
    base = name if kind == "ptr" else f"&{name}"
    if offset:
        base = f"{base}+{offset}w"
    return base


def _placement(placement) -> str:
    if placement is None:
        return ""
    if placement[0] == "owner_of":
        return f" @OWNER_OF({placement[1]})"
    if placement[0] == "home":
        return " @HOME"
    return f" @{_operand(placement[1])}"


def basic_text(stmt: s.BasicStmt) -> str:
    """One basic statement as a listing spells it, without label,
    indentation or ``[R]`` mark; a nop is the empty string."""
    if isinstance(stmt, s.AssignStmt):
        return f"{_lvalue(stmt.lhs)} = {_rhs(stmt.rhs)};"
    if isinstance(stmt, s.CallStmt):
        args = ", ".join(_operand(a) for a in stmt.args)
        call = f"{stmt.func}({args}){_placement(stmt.placement)}"
        if stmt.target is not None:
            call = f"{stmt.target} = {call}"
        return call + ";"
    if isinstance(stmt, s.AllocStmt):
        node = f" @{_operand(stmt.node)}" if stmt.node is not None else ""
        return f"{stmt.target} = malloc({_operand(stmt.words)}){node};"
    if isinstance(stmt, s.BlkmovStmt):
        return (f"blkmov({_endpoint(stmt.src)}, {_endpoint(stmt.dst)}, "
                f"{stmt.words});")
    if isinstance(stmt, s.SharedOpStmt):
        if stmt.op == "valueof":
            return f"{stmt.target} = valueof(&{stmt.shared_var});"
        return f"{stmt.op}(&{stmt.shared_var}, {_operand(stmt.value)});"
    if isinstance(stmt, s.ReturnStmt):
        if stmt.value is None:
            return "return;"
        return f"return {_operand(stmt.value)};"
    if isinstance(stmt, s.PrintStmt):
        args = "".join(f", {_operand(a)}" for a in stmt.args)
        return f"printf({stmt.format!r}{args});"
    if isinstance(stmt, s.NopStmt):
        return ""
    raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover


class SimplePrinter:
    """Renders SIMPLE statements/functions/programs as text."""

    def __init__(self, show_labels: bool = True,
                 mark_remote: bool = True, indent: str = "    "):
        self.show_labels = show_labels
        self.mark_remote = mark_remote
        self.indent = indent
        self._lines: List[str] = []

    # -- public API ------------------------------------------------------------

    def print_stmt(self, stmt: s.Stmt) -> str:
        self._lines = []
        self._emit_stmt(stmt, 0)
        return "\n".join(self._lines)

    def print_function(self, function: s.SimpleFunction) -> str:
        self._lines = []
        params = ", ".join(
            f"{p.type} {p.name}" for p in function.params)
        self._lines.append(
            f"{function.return_type} {function.name}({params})")
        self._lines.append("{")
        locals_ = [
            v for v in function.variables.values() if v.kind != "param"]
        for var in locals_:
            shared = "shared " if var.is_shared else ""
            self._lines.append(f"{self.indent}{shared}{var.type} {var.name};")
        if locals_:
            self._lines.append("")
        for child in function.body.stmts:
            self._emit_stmt(child, 1)
        self._lines.append("}")
        return "\n".join(self._lines)

    def print_program(self, program: s.SimpleProgram) -> str:
        chunks: List[str] = []
        for function in program.functions.values():
            chunks.append(self.print_function(function))
        return "\n\n".join(chunks)

    # -- internals ----------------------------------------------------------------

    def _line(self, depth: int, text: str, stmt: Optional[s.Stmt] = None,
              remote: bool = False) -> None:
        prefix = ""
        if self.show_labels and stmt is not None:
            prefix = f"S{stmt.label}: ".rjust(8)
        elif self.show_labels:
            prefix = " " * 8
        body = f"{prefix}{self.indent * depth}{text}"
        if remote and self.mark_remote:
            body = f"{body}   [R]"
        self._lines.append(body)

    def _emit_stmt(self, stmt: s.Stmt, depth: int) -> None:
        if isinstance(stmt, s.BasicStmt):
            if not isinstance(stmt, s.NopStmt):
                # Only assignments and block moves carry the mark.
                remote = isinstance(stmt, (s.AssignStmt, s.BlkmovStmt)) \
                    and stmt.is_remote
                self._line(depth, basic_text(stmt), stmt, remote=remote)
        elif isinstance(stmt, s.SeqStmt):
            for child in stmt.stmts:
                self._emit_stmt(child, depth)
        elif isinstance(stmt, s.IfStmt):
            self._line(depth, f"if ({stmt.cond}) {{", stmt)
            self._emit_stmt(stmt.then_seq, depth + 1)
            if stmt.else_seq.stmts:
                self._line(depth, "} else {")
                self._emit_stmt(stmt.else_seq, depth + 1)
            self._line(depth, "}")
        elif isinstance(stmt, s.SwitchStmt):
            self._line(depth, f"switch ({_operand(stmt.scrutinee)}) {{",
                       stmt)
            for value, seq in stmt.cases:
                self._line(depth, f"case {value}:")
                self._emit_stmt(seq, depth + 1)
                self._line(depth + 1, "break;")
            if stmt.default is not None:
                self._line(depth, "default:")
                self._emit_stmt(stmt.default, depth + 1)
                self._line(depth + 1, "break;")
            self._line(depth, "}")
        elif isinstance(stmt, s.WhileStmt):
            self._line(depth, f"while ({stmt.cond}) {{", stmt)
            self._emit_stmt(stmt.body, depth + 1)
            self._line(depth, "}")
        elif isinstance(stmt, s.DoStmt):
            self._line(depth, "do {", stmt)
            self._emit_stmt(stmt.body, depth + 1)
            self._line(depth, f"}} while ({stmt.cond});")
        elif isinstance(stmt, s.ParStmt):
            self._line(depth, "{^", stmt)
            for i, branch in enumerate(stmt.branches):
                if i:
                    self._line(depth, "//--")
                self._emit_stmt(branch, depth + 1)
            self._line(depth, "^}")
        elif isinstance(stmt, s.ForallStmt):
            self._line(depth, f"forall (init; {stmt.cond}; step) {{", stmt)
            self._line(depth + 1, "init:")
            self._emit_stmt(stmt.init, depth + 2)
            self._line(depth + 1, "body:")
            self._emit_stmt(stmt.body, depth + 2)
            self._line(depth + 1, "step:")
            self._emit_stmt(stmt.step, depth + 2)
            self._line(depth, "}")
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {stmt!r}")


def print_stmt(stmt: s.Stmt, **kwargs) -> str:
    return SimplePrinter(**kwargs).print_stmt(stmt)


def print_function(function: s.SimpleFunction, **kwargs) -> str:
    return SimplePrinter(**kwargs).print_function(function)


def print_program(program: s.SimpleProgram, **kwargs) -> str:
    return SimplePrinter(**kwargs).print_program(program)
