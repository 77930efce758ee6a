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
* ``(loc, field_key)`` -- a pointer field of an abstract location, where
  ``field_key`` is a tuple of field names or ``"*"`` for unknown
  offsets (array elements, scalar derefs).

The solver is a straightforward worklist over subset constraints with
complex (field dereference) rules re-derived as points-to sets grow.

Alongside the subset lattice the solver carries a *likelihood* channel:
every constraint is weighted by the probability that its statement
executes at least once per invocation (if-arms halve it, switch arms
divide by the alternative count, loop bodies keep it -- the paper's
loops-run-hot assumption), and each points-to fact records the
max-product path weight from an allocation site.  Likelihoods never
change the points-to *sets* -- they only let the probabilistic
communication-selection mode discount expected access counts for
pointers that are only assigned on rare paths
(:meth:`PointsToResult.likelihood`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.simple import nodes as s

Loc = Tuple  # abstract location
Holder = Tuple  # pointer holder

STAR = "*"


def path_key(path) -> Tuple[str, ...]:
    """Field key of an access's field path: its names, or ``(STAR,)``
    for ``None`` (a whole-object / scalar-deref access).  Points-to
    holders, heap effects and communication tuples all key fields this
    way."""
    return tuple(path.names) if path is not None else (STAR,)


class PointsToResult:
    """Query interface over the solved constraint system."""

    def __init__(self, sets: Dict[Holder, Set[Loc]],
                 like: Optional[Dict[Holder, Dict[Loc, float]]] = None):
        self._sets = sets
        self._like = like if like is not None else {}

    def points_to(self, func: str, var: str) -> FrozenSet[Loc]:
        """Locations the pointer variable ``var`` of ``func`` may target
        (globals use ``func=""``)."""
        found = self._sets.get(("var", func, var))
        if found is None:
            found = self._sets.get(("gvar", var), set())
        return frozenset(found)

    def likelihood(self, func: str, var: str) -> float:
        """Probability (in ``[0, 1]``) that ``var`` of ``func`` holds a
        pointer at all -- the best max-product path weight from any
        allocation site it may target.  Conservatively ``1.0`` for
        pointers the analysis knows nothing about (unknown must not
        discount anything)."""
        holder: Holder = ("var", func, var)
        pts = self._sets.get(holder)
        if pts is None:
            holder = ("gvar", var)
            pts = self._sets.get(holder)
        if not pts:
            return 1.0
        per_obj = self._like.get(holder, {})
        return max(min(per_obj.get(loc, 1.0), 1.0) for loc in pts)

    def may_alias_objects(self, func_a: str, var_a: str,
                          func_b: str, var_b: str) -> bool:
        """May the two pointers target the same abstract object?"""
        return bool(self.points_to(func_a, var_a)
                    & self.points_to(func_b, var_b))


class PointsToAnalysis:
    """Builds and solves the constraint system for one program."""

    def __init__(self, program: s.SimpleProgram,
                 branch_prob: float = 0.5):
        self.program = program
        #: Probability weight of one if-arm (switch arms use
        #: ``1/alternatives``); threaded from
        #: :class:`~repro.comm.optconfig.OptConfig.branch_weight`.
        self.branch_prob = branch_prob
        # subset edges: src holder -> dst holders (pts(dst) >= pts(src))
        self._copy_edges: Dict[Holder, Set[Holder]] = {}
        self._sets: Dict[Holder, Set[Loc]] = {}
        # complex constraints, re-applied as sets grow; the trailing
        # float is the constraint's execution probability
        self._field_loads: List[
            Tuple[Holder, Holder, Tuple[str, ...], float]] = []
        self._field_stores: List[
            Tuple[Holder, Holder, Tuple[str, ...], float]] = []
        self._struct_copies: List[Tuple] = []
        # likelihood channel: per-edge weight and per-fact max-product
        self._edge_prob: Dict[Tuple[Holder, Holder], float] = {}
        self._like: Dict[Holder, Dict[Loc, float]] = {}

    # -- construction ----------------------------------------------------------

    def run(self) -> PointsToResult:
        for function in self.program.functions.values():
            self._collect_function(function)
        self._solve()
        return PointsToResult(self._sets, self._like)

    def _var_holder(self, func: s.SimpleFunction, name: str) -> Holder:
        if name in func.variables:
            return ("var", func.name, name)
        return ("gvar", name)

    def _base_points(self, holder: Holder) -> Set[Loc]:
        return self._sets.setdefault(holder, set())

    def _add_copy(self, src: Holder, dst: Holder,
                  prob: float = 1.0) -> None:
        self._copy_edges.setdefault(src, set()).add(dst)
        key = (src, dst)
        if prob > self._edge_prob.get(key, 0.0):
            self._edge_prob[key] = prob

    def _add_base(self, holder: Holder, loc: Loc, prob: float) -> None:
        """Record a base points-to fact with its path probability."""
        self._base_points(holder).add(loc)
        per = self._like.setdefault(holder, {})
        if prob > per.get(loc, 0.0):
            per[loc] = prob

    def _raise_like(self, dst: Holder, locs: Iterable[Loc],
                    src_like: Dict[Loc, float], factor: float) -> bool:
        """Max-product propagation: ``like(dst, loc) >= like(src, loc)
        * factor``.  Missing source entries contribute nothing (they
        fill in on a later fixpoint iteration).  Terminates because
        weights are <= 1, so cycles never raise a value further."""
        per = self._like.setdefault(dst, {})
        raised = False
        for loc in locs:
            src = src_like.get(loc)
            if src is None:
                continue
            cand = src * factor
            if cand > per.get(loc, 0.0) + 1e-12:
                per[loc] = cand
                raised = True
        return raised

    def _is_pointerish(self, func: s.SimpleFunction, name: str) -> bool:
        var = func.variables.get(name) or self.program.globals.get(name)
        return var is not None and var.type.is_pointer

    def _collect_function(self, func: s.SimpleFunction) -> None:
        self._collect_stmt(func, func.body, 1.0)

    def _collect_stmt(self, func: s.SimpleFunction, stmt: s.Stmt,
                      prob: float) -> None:
        """Structure-aware preorder walk (same statement order as
        ``Stmt.walk``) threading the execution probability of the
        enclosing control path."""
        if isinstance(stmt, s.SeqStmt):
            for child in stmt.stmts:
                self._collect_stmt(func, child, prob)
        elif isinstance(stmt, s.IfStmt):
            arm = prob * self.branch_prob
            self._collect_stmt(func, stmt.then_seq, arm)
            self._collect_stmt(func, stmt.else_seq, arm)
        elif isinstance(stmt, s.SwitchStmt):
            arms = max(stmt.num_alternatives, 1)
            for _, seq in stmt.cases:
                self._collect_stmt(func, seq, prob / arms)
            if stmt.default is not None:
                self._collect_stmt(func, stmt.default, prob / arms)
        elif isinstance(stmt, (s.WhileStmt, s.DoStmt)):
            # Loops-run-hot: reaching the loop implies the body runs.
            self._collect_stmt(func, stmt.body, prob)
        elif isinstance(stmt, s.ForallStmt):
            self._collect_stmt(func, stmt.init, prob)
            self._collect_stmt(func, stmt.body, prob)
            self._collect_stmt(func, stmt.step, prob)
        elif isinstance(stmt, s.ParStmt):
            for branch in stmt.branches:
                self._collect_stmt(func, branch, prob)
        elif isinstance(stmt, s.AssignStmt):
            self._collect_assign(func, stmt, prob)
        elif isinstance(stmt, s.AllocStmt):
            self._add_base(self._var_holder(func, stmt.target),
                           ("heap", stmt.site), prob)
        elif isinstance(stmt, s.BlkmovStmt):
            self._collect_blkmov(func, stmt, prob)
        elif isinstance(stmt, s.CallStmt):
            self._collect_call(func, stmt, prob)
        elif isinstance(stmt, s.ReturnStmt):
            if stmt.value is not None and \
                    isinstance(stmt.value, s.VarUse) and \
                    self._is_pointerish(func, stmt.value.name):
                self._add_copy(self._var_holder(func, stmt.value.name),
                               ("ret", func.name), prob)

    def _collect_assign(self, func: s.SimpleFunction,
                        stmt: s.AssignStmt, prob: float = 1.0) -> None:
        rhs = stmt.rhs
        lhs = stmt.lhs
        # Destination holder (only pointer-valued destinations matter).
        dst: Optional[Holder] = None
        if isinstance(lhs, s.VarLV):
            if self._is_pointerish(func, lhs.name):
                dst = self._var_holder(func, lhs.name)
        elif isinstance(lhs, s.FieldWriteLV):
            self._field_stores.append(
                (self._var_holder(func, lhs.base),
                 self._rhs_source(func, rhs),
                 path_key(lhs.path), prob))
            return
        elif isinstance(lhs, s.DerefWriteLV):
            self._field_stores.append(
                (self._var_holder(func, lhs.base),
                 self._rhs_source(func, rhs), (STAR,), prob))
            return
        elif isinstance(lhs, s.IndexWriteLV):
            self._field_stores.append(
                (self._var_holder(func, lhs.base),
                 self._rhs_source(func, rhs), (STAR,), prob))
            return
        elif isinstance(lhs, s.StructFieldWriteLV):
            source = self._rhs_source(func, rhs)
            if source is not None:
                self._add_copy(
                    source,
                    (("structvar", func.name, lhs.struct_var),
                     path_key(lhs.path)), prob)
            return
        if dst is None:
            return
        # Source side.
        if isinstance(rhs, (s.OperandRhs, s.ConvertRhs)):
            operand = rhs.operand
            if isinstance(operand, s.VarUse) and \
                    self._is_pointerish(func, operand.name):
                self._add_copy(self._var_holder(func, operand.name), dst,
                               prob)
        elif isinstance(rhs, s.BinaryRhs):
            # Pointer arithmetic: result targets what the pointer side
            # targets.
            for operand in (rhs.left, rhs.right):
                if isinstance(operand, s.VarUse) and \
                        self._is_pointerish(func, operand.name):
                    self._add_copy(self._var_holder(func, operand.name),
                                   dst, prob)
        elif isinstance(rhs, s.AddrOfRhs):
            self._add_base(dst, ("global", rhs.var), prob)
        elif isinstance(rhs, s.FieldAddrRhs):
            # An interior pointer: conservatively targets the same
            # objects as the base pointer (accesses through it alias
            # accesses through the base).
            self._add_copy(self._var_holder(func, rhs.base), dst, prob)
        elif isinstance(rhs, s.FieldReadRhs):
            self._field_loads.append(
                (self._var_holder(func, rhs.base), dst,
                 path_key(rhs.path), prob))
        elif isinstance(rhs, s.DerefReadRhs):
            self._field_loads.append(
                (self._var_holder(func, rhs.base), dst, (STAR,), prob))
        elif isinstance(rhs, s.IndexReadRhs):
            self._field_loads.append(
                (self._var_holder(func, rhs.base), dst, (STAR,), prob))
        elif isinstance(rhs, s.StructFieldReadRhs):
            self._add_copy(
                (("structvar", func.name, rhs.struct_var),
                 path_key(rhs.path)),
                dst, prob)

    def _rhs_source(self, func: s.SimpleFunction,
                    rhs: s.Rhs) -> Optional[Holder]:
        """Holder feeding a store's value, if it may carry a pointer."""
        if isinstance(rhs, s.OperandRhs) and \
                isinstance(rhs.operand, s.VarUse) and \
                self._is_pointerish(func, rhs.operand.name):
            return self._var_holder(func, rhs.operand.name)
        return None

    def _collect_blkmov(self, func: s.SimpleFunction,
                        stmt: s.BlkmovStmt, prob: float = 1.0) -> None:
        self._struct_copies.append((func.name, stmt.src, stmt.dst, prob))

    def _collect_call(self, func: s.SimpleFunction,
                      stmt: s.CallStmt, prob: float = 1.0) -> None:
        callee = self.program.functions.get(stmt.func)
        if callee is None:
            return  # builtin: no pointer flow (malloc handled as AllocStmt)
        for arg, param in zip(stmt.args, callee.params):
            if isinstance(arg, s.VarUse) and \
                    self._is_pointerish(func, arg.name) and \
                    param.type.is_pointer:
                self._add_copy(self._var_holder(func, arg.name),
                               ("var", callee.name, param.name), prob)
        if stmt.target is not None and \
                self._is_pointerish(func, stmt.target) and \
                callee.return_type.is_pointer:
            self._add_copy(("ret", callee.name),
                           self._var_holder(func, stmt.target), prob)

    # -- solving -----------------------------------------------------------------

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            # Copy edges.
            for src, dsts in self._copy_edges.items():
                src_set = self._base_points(src)
                if not src_set:
                    continue
                src_like = self._like.get(src, {})
                for dst in dsts:
                    dst_set = self._base_points(dst)
                    before = len(dst_set)
                    dst_set |= src_set
                    if len(dst_set) != before:
                        changed = True
                    if self._raise_like(
                            dst, src_set, src_like,
                            self._edge_prob.get((src, dst), 1.0)):
                        changed = True
            # Field loads: dst >= pts((loc, key)) for loc in pts(base).
            for base, dst, key, prob in self._field_loads:
                dst_set = self._base_points(dst)
                for loc in list(self._base_points(base)):
                    for use_key in self._matching_keys(loc, key):
                        src_set = self._base_points((loc, use_key))
                        before = len(dst_set)
                        dst_set |= src_set
                        if len(dst_set) != before:
                            changed = True
                        if self._raise_like(
                                dst, src_set,
                                self._like.get((loc, use_key), {}),
                                prob):
                            changed = True
            # Field stores: (loc, key) >= pts(value) for loc in pts(base).
            for base, source, key, prob in self._field_stores:
                if source is None:
                    continue
                src_set = self._base_points(source)
                if not src_set:
                    continue
                src_like = self._like.get(source, {})
                for loc in list(self._base_points(base)):
                    dst_set = self._base_points((loc, key))
                    before = len(dst_set)
                    dst_set |= src_set
                    if len(dst_set) != before:
                        changed = True
                    if self._raise_like((loc, key), src_set, src_like,
                                        prob):
                        changed = True
            # Struct copies: every field key flows from src object(s) to
            # dst object(s).
            for func_name, src_ep, dst_ep, prob in self._struct_copies:
                src_objs = self._endpoint_objects(func_name, src_ep)
                dst_objs = self._endpoint_objects(func_name, dst_ep)
                for src_obj in src_objs:
                    for key, src_set in list(self._object_fields(src_obj)):
                        if not src_set:
                            continue
                        src_like = self._like.get((src_obj, key), {})
                        for dst_obj in dst_objs:
                            dst_set = self._base_points((dst_obj, key))
                            before = len(dst_set)
                            dst_set |= src_set
                            if len(dst_set) != before:
                                changed = True
                            if self._raise_like((dst_obj, key), src_set,
                                                src_like, prob):
                                changed = True

    def _matching_keys(self, loc: Loc, key: Tuple[str, ...]
                       ) -> Iterable[Tuple[str, ...]]:
        """Field keys stored for ``loc`` that may overlap ``key``."""
        for holder, pts in self._sets.items():
            if not pts:
                continue
            if isinstance(holder, tuple) and len(holder) == 2 \
                    and holder[0] == loc:
                stored = holder[1]
                if key == (STAR,) or stored == (STAR,) or stored == key \
                        or _prefix(stored, key) or _prefix(key, stored):
                    yield stored

    def _object_fields(self, obj: Loc):
        for holder, pts in self._sets.items():
            if isinstance(holder, tuple) and len(holder) == 2 \
                    and holder[0] == obj:
                yield holder[1], pts

    def _endpoint_objects(self, func_name: str, endpoint) -> Set[Loc]:
        kind, name, _offset = endpoint
        if kind == "local":
            return {("structvar", func_name, name)}
        return set(self._base_points(("var", func_name, name)) or
                   self._base_points(("gvar", name)))


def _prefix(a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
    return len(a) <= len(b) and b[:len(a)] == a


def analyze_points_to(program: s.SimpleProgram,
                      branch_prob: float = 0.5) -> PointsToResult:
    """Run whole-program points-to analysis.

    ``branch_prob`` weights the likelihood channel only (see module
    docstring); the may-point-to sets are independent of it.
    """
    return PointsToAnalysis(program, branch_prob).run()
