"""Whole-program points-to analysis over SIMPLE.

The paper builds on Emami's context-sensitive points-to analysis and
Ghiya's connection/heap analysis.  We implement an Andersen-style
(inclusion-based, flow- and context-insensitive) analysis, which is
strictly more conservative: it can only *add* aliases, which makes the
communication optimizer's kill sets larger, never smaller -- so every
transformation remains safe, at some (small, for the Olden kernels)
precision cost.  The substitution is recorded in DESIGN.md.

Abstract locations:

* ``("heap", site)`` -- one location per allocation site;
* ``("global", name)`` -- a global variable whose address is taken;
* ``("structvar", func, name)`` -- a local struct variable (blkmov
  buffers hold pointer fields too).

Pointer *holders* (things that contain pointers):

* ``("var", func, name)`` -- a local/param pointer variable;
* ``("gvar", name)`` -- a global pointer variable;
* ``("ret", func)`` -- a function's returned pointer;
* ``(loc, field_key)`` -- a pointer field of an abstract location, where
  ``field_key`` is a tuple of field names or ``"*"`` for unknown
  offsets (array elements, scalar derefs).

The solver propagates differences over a worklist.  Every constraint
becomes a copy edge ``src -> dst`` (``pts(dst) >= pts(src)``):
assignments, argument and return passing give them directly; a field
load through ``p``, a field store through ``p`` and a struct copy
between two endpoints derive them as ``p`` gains objects.  A holder
whose set grew is queued with just the locations that changed, and
only those travel along its out-edges; a location new to a
dereferenced pointer links the holders it reaches then.  A per-object
field index (object -> field key -> points-to set) names the fields a
load or a struct copy reaches without scanning the table, and the edge
from a field holder created later is added when it is created.

:class:`PointsToResult` freezes each solved set once.  A query names a
variable the way its function sees it -- the function's own variable,
else the global -- and an empty answer means *unknown*: it may alias
anything.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.simple import nodes as s

Loc = Tuple  # abstract location
Holder = Tuple  # pointer holder
FieldKey = Tuple[str, ...]

STAR = "*"


def path_key(path) -> FieldKey:
    """Field key of an access's field path: its names, or ``(STAR,)``
    for ``None`` (a whole-object / scalar-deref access).  Points-to
    holders, heap effects and communication tuples all key fields this
    way."""
    return tuple(path.names) if path is not None else (STAR,)


def keys_overlap(a: FieldKey, b: FieldKey) -> bool:
    """May two field keys touch overlapping words?  A key is a path of
    field names or ``("*",)`` (whole object / unknown offset).  Nested
    struct fields overlap when one path is a prefix of the other."""
    if a == (STAR,) or b == (STAR,):
        return True
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]




class PointsToResult:
    """Query interface over the solved constraint system."""

    def __init__(self, sets: Dict[Holder, Set[Loc]],
                 functions: Dict[str, s.SimpleFunction]):
        self._sets = {holder: frozenset(locs)
                      for holder, locs in sets.items()}
        self._functions = functions

    def _holder(self, func: str, var: str) -> Holder:
        """``var`` as ``func`` sees it: its own variable, else a global
        (globals use ``func=""``)."""
        function = self._functions.get(func)
        if function is not None and var in function.variables:
            return ("var", func, var)
        return ("gvar", var)

    def points_to(self, func: str, var: str) -> FrozenSet[Loc]:
        """Locations the pointer variable ``var`` of ``func`` may target;
        empty means unknown."""
        return self._sets.get(self._holder(func, var), frozenset())

    def may_alias_objects(self, func_a: str, var_a: str,
                          func_b: str, var_b: str) -> bool:
        """May the two pointers target the same abstract object?  An
        empty set is unknown, so it may alias anything."""
        a = self.points_to(func_a, var_a)
        b = self.points_to(func_b, var_b)
        return not a or not b or not a.isdisjoint(b)


class PointsToAnalysis:
    """Builds and solves the constraint system for one program."""

    def __init__(self, program: s.SimpleProgram):
        self.program = program
        self._sets: Dict[Holder, Set[Loc]] = {}
        # copy edges, given and derived: src -> dsts, each meaning
        # pts(dst) >= pts(src)
        self._succ: Dict[Holder, Set[Holder]] = {}
        # the field index: object -> field key -> pts((object, key))
        self._fields: Dict[Loc, Dict[FieldKey, Set[Loc]]] = {}
        # complex constraints, keyed by the pointer they dereference
        self._loads: Dict[Holder, List[Tuple[Holder, FieldKey]]] = {}
        self._stores: Dict[Holder, List[Tuple[Holder, FieldKey]]] = {}
        # struct copies through a pointer: pointer -> (objects at the
        # other end, whether the pointer is the source)
        self._blkmovs: Dict[Holder, List[Tuple[Set[Loc], bool]]] = {}
        # per object: the loads that read it and the objects its fields
        # are copied into, so a field holder created later is linked
        self._readers: Dict[Loc, List[Tuple[FieldKey, Holder]]] = {}
        self._copiers: Dict[Loc, Set[Loc]] = {}
        # the worklist: holders with the locations that changed since
        # they were last visited; and per dereferenced pointer the
        # locations its complex constraints have been linked for
        self._work: List[Holder] = []
        self._changed: Dict[Holder, Set[Loc]] = {}
        self._linked: Dict[Holder, Set[Loc]] = {}

    # -- construction ----------------------------------------------------------

    def run(self) -> PointsToResult:
        for function in self.program.functions.values():
            self._collect_stmt(function, function.body)
        self._solve()
        return PointsToResult(self._sets, self.program.functions)

    def _var_holder(self, func: s.SimpleFunction, name: str) -> Holder:
        if name in func.variables:
            return ("var", func.name, name)
        return ("gvar", name)

    def _add_copy(self, src: Holder, dst: Holder) -> None:
        self._succ.setdefault(src, set()).add(dst)

    def _is_pointerish(self, func: s.SimpleFunction, name: str) -> bool:
        var = func.variables.get(name) or self.program.globals.get(name)
        return var is not None and var.type.is_pointer

    def _collect_stmt(self, func: s.SimpleFunction, stmt: s.Stmt) -> None:
        """Preorder walk (the statement order of ``Stmt.walk``)
        collecting each basic statement's constraints."""
        if isinstance(stmt, s.AssignStmt):
            self._collect_assign(func, stmt)
        elif isinstance(stmt, s.CallStmt):
            self._collect_call(func, stmt)
        elif isinstance(stmt, s.AllocStmt):
            self._pts_of(self._var_holder(func, stmt.target)).add(
                ("heap", stmt.site))
        elif isinstance(stmt, s.ReturnStmt):
            if isinstance(stmt.value, s.VarUse) and \
                    self._is_pointerish(func, stmt.value.name):
                self._add_copy(self._var_holder(func, stmt.value.name),
                               ("ret", func.name))
        elif isinstance(stmt, s.BlkmovStmt):
            self._collect_blkmov(func, stmt)
        else:
            for child in stmt.children():
                self._collect_stmt(func, child)

    def _collect_assign(self, func: s.SimpleFunction,
                        stmt: s.AssignStmt) -> None:
        rhs = stmt.rhs
        lhs = stmt.lhs
        # Destination holder (only pointer-valued destinations matter).
        dst: Optional[Holder] = None
        if isinstance(lhs, s.VarLV):
            if self._is_pointerish(func, lhs.name):
                dst = self._var_holder(func, lhs.name)
        elif isinstance(lhs, s.FieldWriteLV):
            self._add_store(func, lhs.base, rhs, path_key(lhs.path))
            return
        elif isinstance(lhs, (s.DerefWriteLV, s.IndexWriteLV)):
            self._add_store(func, lhs.base, rhs, (STAR,))
            return
        elif isinstance(lhs, s.StructFieldWriteLV):
            source = self._rhs_source(func, rhs)
            if source is not None:
                self._add_copy(
                    source,
                    (("structvar", func.name, lhs.struct_var),
                     path_key(lhs.path)))
            return
        if dst is None:
            return
        # Source side.
        if isinstance(rhs, (s.OperandRhs, s.ConvertRhs)):
            operand = rhs.operand
            if isinstance(operand, s.VarUse) and \
                    self._is_pointerish(func, operand.name):
                self._add_copy(self._var_holder(func, operand.name), dst)
        elif isinstance(rhs, s.BinaryRhs):
            # Pointer arithmetic: result targets what the pointer side
            # targets.
            for operand in (rhs.left, rhs.right):
                if isinstance(operand, s.VarUse) and \
                        self._is_pointerish(func, operand.name):
                    self._add_copy(self._var_holder(func, operand.name),
                                   dst)
        elif isinstance(rhs, s.AddrOfRhs):
            self._pts_of(dst).add(("global", rhs.var))
        elif isinstance(rhs, s.FieldAddrRhs):
            # An interior pointer: conservatively targets the same
            # objects as the base pointer (accesses through it alias
            # accesses through the base).
            self._add_copy(self._var_holder(func, rhs.base), dst)
        elif isinstance(rhs, s.FieldReadRhs):
            self._add_load(func, rhs.base, dst, path_key(rhs.path))
        elif isinstance(rhs, (s.DerefReadRhs, s.IndexReadRhs)):
            self._add_load(func, rhs.base, dst, (STAR,))
        elif isinstance(rhs, s.StructFieldReadRhs):
            self._add_copy(
                (("structvar", func.name, rhs.struct_var),
                 path_key(rhs.path)),
                dst)

    def _add_load(self, func: s.SimpleFunction, base: str, dst: Holder,
                  key: FieldKey) -> None:
        """``dst >= pts((loc, k))`` for every ``loc`` in ``pts(base)``
        and every stored key ``k`` overlapping ``key``."""
        self._loads.setdefault(self._var_holder(func, base), []).append(
            (dst, key))

    def _add_store(self, func: s.SimpleFunction, base: str, rhs: s.Rhs,
                   key: FieldKey) -> None:
        """``(loc, key) >= pts(value)`` for every ``loc`` in
        ``pts(base)``, when the stored value may carry a pointer."""
        source = self._rhs_source(func, rhs)
        if source is not None:
            self._stores.setdefault(self._var_holder(func, base),
                                    []).append((source, key))

    def _rhs_source(self, func: s.SimpleFunction,
                    rhs: s.Rhs) -> Optional[Holder]:
        """Holder feeding a store's value, if it may carry a pointer."""
        if isinstance(rhs, s.OperandRhs) and \
                isinstance(rhs.operand, s.VarUse) and \
                self._is_pointerish(func, rhs.operand.name):
            return self._var_holder(func, rhs.operand.name)
        return None

    def _collect_blkmov(self, func: s.SimpleFunction,
                        stmt: s.BlkmovStmt) -> None:
        """Every field key flows from the source object(s) to the
        destination object(s): the objects both ends name now are
        linked here, and a pointer end links each object it gains
        later (:meth:`_deref`)."""
        src = self._endpoint_objects(func, stmt.src)
        dst = self._endpoint_objects(func, stmt.dst)
        if stmt.src[0] != "local":
            self._blkmovs.setdefault(self._var_holder(func, stmt.src[1]),
                                     []).append((dst, True))
        if stmt.dst[0] != "local":
            self._blkmovs.setdefault(self._var_holder(func, stmt.dst[1]),
                                     []).append((src, False))
        for src_obj in src:
            for dst_obj in dst:
                self._link(src_obj, dst_obj)

    def _endpoint_objects(self, func: s.SimpleFunction,
                          endpoint) -> Set[Loc]:
        """The objects a blkmov endpoint names: a local struct, or the
        live points-to set of the pointer."""
        kind, name, _offset = endpoint
        if kind == "local":
            return {("structvar", func.name, name)}
        return self._pts_of(self._var_holder(func, name))

    def _collect_call(self, func: s.SimpleFunction,
                      stmt: s.CallStmt) -> None:
        callee = self.program.functions.get(stmt.func)
        if callee is None:
            return  # builtin: no pointer flow (malloc handled as AllocStmt)
        for arg, param in zip(stmt.args, callee.params):
            if isinstance(arg, s.VarUse) and \
                    self._is_pointerish(func, arg.name) and \
                    param.type.is_pointer:
                self._add_copy(self._var_holder(func, arg.name),
                               ("var", callee.name, param.name))
        if stmt.target is not None and \
                self._is_pointerish(func, stmt.target) and \
                callee.return_type.is_pointer:
            self._add_copy(("ret", callee.name),
                           self._var_holder(func, stmt.target))

    # -- solving -----------------------------------------------------------------

    def _solve(self) -> None:
        for holder, locs in self._sets.items():
            if locs:
                self._changed[holder] = set(locs)
                self._work.append(holder)
        work = self._work
        succ = self._succ
        while work:
            holder = work.pop()
            changed = self._changed.pop(holder)
            for dst in succ.get(holder, ()):
                self._flow(dst, changed)
            if holder in self._loads or holder in self._stores \
                    or holder in self._blkmovs:
                self._deref(holder, changed)

    def _pts_of(self, holder: Holder) -> Set[Loc]:
        """The holder's points-to set, created empty on first use.  A
        new field holder enters the field index and takes the edges of
        the loads and struct copies that already reach its object."""
        locs = self._sets.get(holder)
        if locs is not None:
            return locs
        locs = self._sets[holder] = set()
        if type(holder[0]) is tuple:
            obj, key = holder
            self._fields.setdefault(obj, {})[key] = locs
            for read_key, dst in self._readers.get(obj, ()):
                if keys_overlap(read_key, key):
                    self._add_edge(holder, dst)
            for dst_obj in self._copiers.get(obj, ()):
                self._add_edge(holder, (dst_obj, key))
        return locs

    def _flow(self, dst: Holder, locs: Set[Loc]) -> None:
        """``pts(dst) >= locs``; queue what grew."""
        dst_locs = self._pts_of(dst)
        grown = locs - dst_locs
        if grown:
            dst_locs |= grown
            pending = self._changed.get(dst)
            if pending is None:
                self._changed[dst] = grown
                self._work.append(dst)
            else:
                pending |= grown

    def _add_edge(self, src: Holder, dst: Holder) -> None:
        """A copy edge found while solving: push all of ``pts(src)``
        along it now, and later growth with the rest of the worklist."""
        out = self._succ.setdefault(src, set())
        if dst in out:
            return
        out.add(dst)
        locs = self._sets.get(src)
        if locs:
            self._flow(dst, locs)

    def _link(self, src_obj: Loc, dst_obj: Loc) -> None:
        """A struct copy from ``src_obj`` into ``dst_obj``: each field of
        the one flows into the same field of the other."""
        out = self._copiers.setdefault(src_obj, set())
        if dst_obj in out:
            return
        out.add(dst_obj)
        for key in self._fields.get(src_obj, ()):
            self._add_edge((src_obj, key), (dst_obj, key))

    def _deref(self, holder: Holder, changed: Set[Loc]) -> None:
        """Add the edges of the loads, stores and struct copies through
        the pointer ``holder`` for the objects it newly targets."""
        linked = self._linked.setdefault(holder, set())
        fresh = changed - linked
        if not fresh:
            return
        linked |= fresh
        for loc in fresh:
            for dst, key in self._loads.get(holder, ()):
                self._readers.setdefault(loc, []).append((key, dst))
                for stored in self._fields.get(loc, ()):
                    if keys_overlap(key, stored):
                        self._add_edge((loc, stored), dst)
            for source, key in self._stores.get(holder, ()):
                self._add_edge(source, (loc, key))
            for others, outgoing in self._blkmovs.get(holder, ()):
                for other in others:
                    if outgoing:
                        self._link(loc, other)
                    else:
                        self._link(other, loc)


def analyze_points_to(program: s.SimpleProgram) -> PointsToResult:
    """Run whole-program points-to analysis."""
    return PointsToAnalysis(program).run()
