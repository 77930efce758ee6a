"""Structural validator for SIMPLE programs.

Checks the invariants the analyses rely on:

* each basic statement performs at most one (potentially) remote access
  (the defining property of SIMPLE for this paper);
* every referenced variable is declared in the function or globally;
* statement labels are unique within a function and each statement
  appears exactly once in the tree;
* shared variables are only touched by :class:`SharedOpStmt`;
* ``blkmov`` endpoints have the right kinds;
* a split-phase remote read lands in one of the function's own
  variables, never in a global.

Raises :class:`repro.errors.AnalysisError` on the first violation (a
:class:`repro.errors.TransformError` for a split-phase read into a
global, which only an optimizer pass can produce); returns statistics
otherwise (handy in tests).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import AnalysisError, TransformError
from repro.simple import nodes as s
from repro.simple.traversal import basic_defs, basic_uses, cond_uses


class ValidationStats:
    """Counts gathered during validation."""

    def __init__(self):
        self.functions = 0
        self.basic_stmts = 0
        self.remote_reads = 0
        self.remote_writes = 0
        self.blkmovs = 0

    def __repr__(self) -> str:
        return (f"ValidationStats(functions={self.functions}, "
                f"basic={self.basic_stmts}, reads={self.remote_reads}, "
                f"writes={self.remote_writes}, blkmovs={self.blkmovs})")


def validate_program(program: s.SimpleProgram) -> ValidationStats:
    stats = ValidationStats()
    for function in program.functions.values():
        _validate_function(program, function, stats)
        stats.functions += 1
    return stats


def validate_function(program: s.SimpleProgram,
                      function: s.SimpleFunction) -> ValidationStats:
    stats = ValidationStats()
    _validate_function(program, function, stats)
    stats.functions = 1
    return stats


def _fail(function: s.SimpleFunction, stmt: s.Stmt, message: str) -> None:
    raise AnalysisError(
        f"{function.name}: S{stmt.label}: {message}")


def _validate_function(program: s.SimpleProgram,
                       function: s.SimpleFunction,
                       stats: ValidationStats) -> None:
    seen_labels: Set[int] = set()
    seen_ids: Set[int] = set()
    known = set(function.variables) | set(program.globals)

    for stmt in function.body.walk():
        if stmt.label in seen_labels:
            _fail(function, stmt, "duplicate label")
        seen_labels.add(stmt.label)
        if id(stmt) in seen_ids:  # pragma: no cover - walk() can't repeat
            _fail(function, stmt, "statement aliased in tree")
        seen_ids.add(id(stmt))

        if isinstance(stmt, s.BasicStmt):
            stats.basic_stmts += 1
            _validate_basic(program, function, stmt, known, stats)
        else:
            _validate_compound(function, stmt, known)


def _validate_basic(program: s.SimpleProgram, function: s.SimpleFunction,
                    stmt: s.BasicStmt, known: Set[str],
                    stats: ValidationStats) -> None:
    read = stmt.remote_read()
    write = stmt.remote_write()
    if read is not None and write is not None \
            and not isinstance(stmt, s.BlkmovStmt):
        _fail(function, stmt,
              "basic statement with both a remote read and a remote write")
    if read is not None:
        stats.remote_reads += 1
        if isinstance(stmt, s.AssignStmt) and stmt.split_phase \
                and not function.can_split_read(stmt):
            raise TransformError(
                f"{function.name}: S{stmt.label}: split-phase remote "
                f"read into {stmt.lhs.name!r}, which is not a variable "
                f"of the function")
    if write is not None:
        stats.remote_writes += 1
    if isinstance(stmt, s.BlkmovStmt):
        stats.blkmovs += 1
        for kind, name, _offset in (stmt.src, stmt.dst):
            if name not in known:
                _fail(function, stmt,
                      f"blkmov endpoint {name!r} undeclared")
        if stmt.words <= 0:
            _fail(function, stmt, "blkmov of non-positive size")

    for name in basic_uses(stmt) | basic_defs(stmt):
        if name not in known:
            _fail(function, stmt, f"undeclared variable {name!r}")
        var = function.variables.get(name) or program.globals.get(name)
        if var is not None and var.is_shared \
                and not isinstance(stmt, s.SharedOpStmt):
            _fail(function, stmt,
                  f"shared variable {name!r} accessed outside a shared op")

    if isinstance(stmt, s.SharedOpStmt):
        var = function.variables.get(stmt.shared_var) \
            or program.globals.get(stmt.shared_var)
        if var is None:
            _fail(function, stmt,
                  f"undeclared shared variable {stmt.shared_var!r}")
        elif not var.is_shared:
            _fail(function, stmt,
                  f"{stmt.shared_var!r} is not declared shared")
        if stmt.op == "valueof" and stmt.target is None:
            _fail(function, stmt, "valueof without a target")
        if stmt.op in ("writeto", "addto") and stmt.value is None:
            _fail(function, stmt, f"{stmt.op} without a value")


def _validate_compound(function: s.SimpleFunction, stmt: s.Stmt,
                       known: Set[str]) -> None:
    conds = []
    if isinstance(stmt, (s.IfStmt, s.WhileStmt, s.DoStmt)):
        conds.append(stmt.cond)
    elif isinstance(stmt, s.ForallStmt):
        conds.append(stmt.cond)
    elif isinstance(stmt, s.SwitchStmt):
        seen_values: Set[int] = set()
        for value, _ in stmt.cases:
            if value in seen_values:
                _fail(function, stmt, f"duplicate case value {value}")
            seen_values.add(value)
        for name in stmt.scrutinee.variables():
            if name not in known:
                _fail(function, stmt, f"undeclared variable {name!r}")
    for cond in conds:
        for name in cond_uses(cond):
            if name not in known:
                _fail(function, stmt,
                      f"undeclared variable {name!r} in condition")
