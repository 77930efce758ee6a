"""Read/write set analysis for SIMPLE statements.

The paper decorates every basic *and compound* statement with the set of
locations read/written, including heap read/write sets from connection
analysis; these drive the kill rules of possible-placement analysis
(``varWritten``, ``accessedViaAlias``).  This module computes:

* **variable writes** -- which stack/global variables a statement may
  write (directly; stack variables have no aliases in the dialect
  because taking the address of a stack scalar is rejected).  Variable
  *reads* are not kept: no kill rule asks whether a statement reads a
  variable, only whether it may change one (``varWritten``);
* **heap effects** -- sets of records, each the paper's triple
  ``(base, loc, key)``: "memory of abstract object ``loc`` at field key
  ``key`` is accessed, syntactically through pointer variable
  ``base``".  ``base is None`` for effects imported from callees --
  the paper's *anchor handle* information: an access with the same
  base variable is a *direct* access, anything else is a potential
  alias access;
* **function summaries** -- heap and global-variable effects of whole
  calls, computed to a fixed point over the (possibly recursive) call
  graph.

A function's own summary is one union over its basic statements, built
in the same pass that decorates them (locals dropped, heap records
anonymized).  Summaries then grow along call edges until nothing grows;
a merge is a containment test and a set union.  Effects for compound
statements are one union of their children's (kept by label in the one
table), matching the paper's per-statement decoration.

Records are read only here: :func:`may_hit` states what a record may
touch, and the :class:`EffectsAnalysis` queries are the only way the
optimizer asks.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.points_to import (
    STAR,
    FieldKey,
    PointsToResult,
    keys_overlap,
    path_key,
)
from repro.simple import nodes as s
from repro.simple.traversal import basic_defs

#: Matches any abstract object in overlap queries.
UNKNOWN = ("unknown",)

_HEAP_READS = (s.FieldReadRhs, s.DerefReadRhs, s.IndexReadRhs)
_HEAP_WRITES = (s.FieldWriteLV, s.DerefWriteLV, s.IndexWriteLV)


def access_key(access) -> FieldKey:
    """Field key of a heap read or write node: its field path, or the
    whole object for a scalar deref or an indexed access."""
    if isinstance(access, (s.FieldReadRhs, s.FieldWriteLV)):
        return path_key(access.path)
    return (STAR,)


#: One heap access, the paper's triple: ``(base, loc, key)``.
Record = Tuple[Optional[str], Tuple, FieldKey]


def may_hit(loc: Tuple, targets: Collection[Tuple]) -> bool:
    """The may-hit rule: may a record of object ``loc`` touch an object
    in ``targets``, a points-to set (empty: unknown)?"""
    return loc == UNKNOWN or not targets or loc in targets


class Effects:
    """Aggregated effects of one statement (or one function summary)."""

    __slots__ = ("var_writes", "heap_reads", "heap_writes")

    def __init__(self):
        self.var_writes: Set[str] = set()
        self.heap_reads: Set[Record] = set()
        self.heap_writes: Set[Record] = set()

    def merge(self, other: "Effects",
              drop_locals_of: Optional[FrozenSet[str]] = None) -> bool:
        """Union ``other`` into self; returns True when something new
        was added.  ``drop_locals_of`` filters out variable writes to
        names in that set (used when importing a callee summary into a
        caller -- callee locals are invisible).  Heap effects are taken
        as they are; a summary's are anonymized already."""
        var_writes = other.var_writes
        if drop_locals_of is not None:
            var_writes = var_writes - drop_locals_of
        if var_writes <= self.var_writes \
                and other.heap_reads <= self.heap_reads \
                and other.heap_writes <= self.heap_writes:
            return False
        self.var_writes |= var_writes
        self.heap_reads |= other.heap_reads
        self.heap_writes |= other.heap_writes
        return True

    def __repr__(self) -> str:
        return (f"Effects(vw={sorted(self.var_writes)}, "
                f"hr={len(self.heap_reads)}, hw={len(self.heap_writes)})")


def _union(parts: List[Effects]) -> Effects:
    """Everything in ``parts`` in one pass."""
    union = Effects()
    for part in parts:
        union.var_writes |= part.var_writes
        union.heap_reads |= part.heap_reads
        union.heap_writes |= part.heap_writes
    return union


def _anonymized_into(summary: Set[Record], records: Set[Record]) -> None:
    """A statement's heap records into a summary with the base variable
    cleared (a callee's accesses are alias accesses from a caller's
    perspective)."""
    summary |= {(None, loc, key) for _, loc, key in records}


class EffectsAnalysis:
    """Computes per-statement effects with interprocedural summaries.

    Create once per program state (after points-to), then query
    :meth:`effects`, :meth:`var_written`, :meth:`accessed_via_alias`,
    :meth:`accessed_directly` and :meth:`may_write`.
    The analysis keeps one table, ``(function, label) -> Effects``.
    Every basic statement is entered at construction, so the table
    describes the program as it stood then; a compound statement is
    aggregated from its children on first query, and so is a statement
    a pass inserted later.
    """

    def __init__(self, program: s.SimpleProgram, pts: PointsToResult):
        self.program = program
        self.pts = pts
        self._summaries: Dict[str, Effects] = {}
        self._table: Dict[Tuple[str, int], Effects] = {}
        self._compute_summaries()

    # -- public queries -----------------------------------------------------------

    def effects(self, func: s.SimpleFunction, stmt: s.Stmt) -> Effects:
        """The full effect set of ``stmt`` (compound statements aggregate
        children, calls import callee summaries)."""
        key = (func.name, stmt.label)
        found = self._table.get(key)
        if found is None:
            found = self._table[key] = self._stmt_effects(func, stmt)
        return found

    def var_written(self, func: s.SimpleFunction, name: str,
                    stmt: s.Stmt) -> bool:
        """The paper's ``varWritten(p, stmt)``: may the statement change
        the value of variable ``name``?"""
        return name in self.effects(func, stmt).var_writes

    def accessed_via_alias(self, func: s.SimpleFunction, base: str,
                           key: FieldKey, stmt: s.Stmt, mode: str) -> bool:
        """The paper's ``accessedViaAlias(p, f, d, stmt, mode)``: may the
        statement read (``mode="read"``) or write (``mode="write"``) the
        memory named by ``base->key`` through anything *other than*
        ``base`` itself?"""
        return self._touches(func, base, key, stmt, mode, direct=False)

    def accessed_directly(self, func: s.SimpleFunction, base: str,
                          key: FieldKey, stmt: s.Stmt, mode: str) -> bool:
        """May the statement access ``base->key`` *through base itself*
        (the direct/anchored case the alias query excludes)?"""
        return self._touches(func, base, key, stmt, mode, direct=True)

    def may_write(self, func: s.SimpleFunction, base: str, key: FieldKey,
                  stmt: s.Stmt) -> bool:
        """May the statement write ``base->key`` through any handle?"""
        return self._touches(func, base, key, stmt, "write", direct=None)

    def _touches(self, func: s.SimpleFunction, base: str, key: FieldKey,
                 stmt: s.Stmt, mode: str, direct: Optional[bool]) -> bool:
        """May a ``mode`` record of the statement hit ``base->key``?
        ``direct`` keeps only records through ``base`` (True), only
        records through another handle (False), or all (None)."""
        assert mode in ("read", "write")
        effects = self.effects(func, stmt)
        records = (effects.heap_reads if mode == "read"
                   else effects.heap_writes)
        if not records:
            return False
        targets = self.pts.points_to(func.name, base)
        for handle, loc, field in records:
            if direct is not None and (handle == base) is not direct:
                continue
            if keys_overlap(field, key) and may_hit(loc, targets):
                return True
        return False

    def summary(self, func_name: str) -> Effects:
        return self._summaries.get(func_name, Effects())

    # -- summaries ------------------------------------------------------------------

    def _compute_summaries(self) -> None:
        """Enter every basic statement's own effects in the table and
        union them into its function's summary in the same pass, solve
        ``summary(f) = own(f) + summary(g) for each g that f calls``
        (f's locals dropped, heap bases anonymized) by propagating over
        the call edges until nothing grows, then import each callee's
        summary at its call sites."""
        functions = self.program.functions
        call_sites: List[Tuple[Effects, s.CallStmt]] = []
        callers: Dict[str, List[str]] = {name: [] for name in functions}
        locals_of = {name: frozenset(func.variables)
                     for name, func in functions.items()}
        for name, func in functions.items():
            summary = self._summaries[name] = Effects()
            for stmt in func.body.basic_stmts():
                own = self._table[name, stmt.label] = \
                    self._basic_effects(func, stmt)
                summary.var_writes |= own.var_writes
                if own.heap_reads:
                    _anonymized_into(summary.heap_reads, own.heap_reads)
                if own.heap_writes:
                    _anonymized_into(summary.heap_writes, own.heap_writes)
                if isinstance(stmt, s.CallStmt) and stmt.func in functions:
                    call_sites.append((own, stmt))
                    if name not in callers[stmt.func]:
                        callers[stmt.func].append(name)
            summary.var_writes -= locals_of[name]
        grown = list(functions)
        while grown:
            callee = grown.pop()
            for caller in callers[callee]:
                if self._summaries[caller].merge(
                        self._summaries[callee],
                        drop_locals_of=locals_of[caller]):
                    grown.append(caller)
        for own, stmt in call_sites:
            self._import_callee(own, stmt)

    def _import_callee(self, effects: Effects, stmt: s.BasicStmt) -> None:
        """A call to a program function has the callee's summary among
        its effects; built-ins have no heap effects beyond their
        arguments."""
        if isinstance(stmt, s.CallStmt) and stmt.func in self._summaries:
            effects.merge(self._summaries[stmt.func])

    # -- per-statement computation ------------------------------------------------------

    def _stmt_effects(self, func: s.SimpleFunction, stmt: s.Stmt) -> Effects:
        """Effects of a statement the table does not hold yet."""
        if isinstance(stmt, s.BasicStmt):
            effects = self._basic_effects(func, stmt)
            self._import_callee(effects, stmt)
            return effects
        return _union([self.effects(func, child)
                       for child in stmt.children()])

    def _basic_effects(self, func: s.SimpleFunction,
                       stmt: s.BasicStmt) -> Effects:
        """The statement's own effects: everything but what a callee
        does."""
        effects = Effects()
        effects.var_writes = basic_defs(stmt)
        if isinstance(stmt, s.AssignStmt):
            rhs = stmt.rhs
            if isinstance(rhs, _HEAP_READS):
                self._add_ptr_effect(func, effects, rhs.base,
                                     access_key(rhs), write=False)
            lhs = stmt.lhs
            if isinstance(lhs, _HEAP_WRITES):
                self._add_ptr_effect(func, effects, lhs.base,
                                     access_key(lhs), write=True)
        elif isinstance(stmt, s.BlkmovStmt):
            if stmt.src[0] == "ptr":
                self._add_ptr_effect(func, effects, stmt.src[1], (STAR,),
                                     write=False)
            if stmt.dst[0] == "ptr":
                self._add_ptr_effect(func, effects, stmt.dst[1], (STAR,),
                                     write=True)
        return effects

    def _add_ptr_effect(self, func: s.SimpleFunction, effects: Effects,
                        base: str, key: FieldKey, write: bool) -> None:
        targets = self.pts.points_to(func.name, base) or (UNKNOWN,)
        records = effects.heap_writes if write else effects.heap_reads
        records |= {(base, loc, key) for loc in targets}
