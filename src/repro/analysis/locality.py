"""Locality analysis (simplified Zhu & Hendren PACT'97).

The paper's companion analysis infers which pointers always point into
the executing node's local memory, so dereferences compile to cheap
local accesses instead of remote operations.  We implement the sources
of locality the benchmarks exercise:

* explicit ``local`` pointer qualifiers (already honored by the
  simplifier -- those accesses were never marked remote);
* **owner-placed parameters**: if *every* call of function ``f`` in the
  program is placed ``@OWNER_OF(arg_i)``, then parameter ``i`` of ``f``
  is local within ``f`` (the call executes on the node that owns the
  pointee);
* **locally-allocated pointers**: a variable whose *only* definitions
  are unplaced ``malloc`` statements (which allocate on the executing
  node) or copies of other local pointers is local -- provided the
  enclosing function never migrates between the definition and use
  (true in our execution model: an activation runs on one node).

The pass runs on SIMPLE *in place*: it clears the ``remote`` flag of
accesses through pointers proved local.  Being flow-insensitive, a
variable with any non-local definition stays remote everywhere --
conservative but safe.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.simple import nodes as s


class LocalityResult:
    """Which (function, variable) pointers were proved local."""

    def __init__(self, local_vars: Set[Tuple[str, str]],
                 demoted_accesses: int):
        self.local_vars = local_vars
        self.demoted_accesses = demoted_accesses

    def is_local(self, func: str, var: str) -> bool:
        return (func, var) in self.local_vars

    def __repr__(self) -> str:
        return (f"LocalityResult({len(self.local_vars)} local pointers, "
                f"{self.demoted_accesses} accesses demoted)")


def _param_locality_fixpoint(
        program: s.SimpleProgram) -> Dict[str, Set[str]]:
    """Interprocedural parameter locality (the heart of Zhu & Hendren's
    PACT'97 analysis).

    A pointer parameter is local when *every* call site guarantees the
    callee sees a node-local pointee:

    * the call is placed ``@OWNER_OF(arg)`` with that same argument
      (execution migrates to the pointee's node), or
    * the call is unplaced (runs on the caller's node) and the argument
      is itself a local pointer of the caller (or a null constant).

    Proving an argument local may require parameter locality of the
    caller, so the analysis iterates to a (monotone, increasing)
    fixpoint over each function's pointer definitions and the
    program's pointer arguments, each gathered once.  Returns, for each
    function, its full set of local pointers (parameters and locals).
    """
    functions = program.functions.values()
    defs = {function.name: _pointer_defs(function)
            for function in functions}
    # (function, pointer) pairs known local: declared so, or proven.
    seeds: Set[Tuple[str, str]] = {
        (function.name, name) for function in functions
        for name, var in function.variables.items()
        if var.type.is_pointer and var.type.is_local}
    # Per pointer argument: (caller, (callee, param), its verdict, or
    # the caller's variable whose locality decides it).
    arguments = []
    for function in functions:
        for stmt in function.body.basic_stmts():
            if not isinstance(stmt, s.CallStmt):
                continue
            callee = program.functions.get(stmt.func)
            if callee is None:
                continue
            placed = stmt.placement
            for arg, param in zip(stmt.args, callee.params):
                if not param.type.is_pointer:
                    continue
                if placed is not None and placed[0] == "owner_of":
                    needs = isinstance(arg, s.VarUse) \
                        and arg.name == placed[1]
                elif placed is None:
                    if isinstance(arg, s.Const):
                        needs = arg.value == 0
                    elif isinstance(arg, s.VarUse):
                        needs = arg.name
                    else:
                        needs = False
                else:
                    needs = False  # @node / @HOME: unknown destination
                arguments.append((function.name,
                                  (callee.name, param.name), needs))
    locals_map: Dict[str, Set[str]] = {}
    while True:
        # 1. Local pointer sets under the current parameter assumption.
        for function in functions:
            seeded = {p for (fname, p) in seeds if fname == function.name}
            locals_map[function.name] = _local_by_definition(
                function, defs[function.name], seeded)
        # 2. Per-call-site verdicts for every (callee, param).
        verdict: Dict[Tuple[str, str], bool] = {}
        for caller, key, needs in arguments:
            verdict[key] = verdict.get(key, True) \
                and _holds(needs, locals_map[caller])
        proven = {key for key, ok in verdict.items() if ok}
        if proven <= seeds:
            return locals_map
        seeds |= proven


def _holds(needs, local: Set[str]) -> bool:
    """A definition's or an argument's verdict: a bool, or the name of
    the variable whose locality decides it."""
    return needs in local if isinstance(needs, str) else needs


def _pointer_defs(function: s.SimpleFunction) -> Dict[str, list]:
    """Every definition of every pointer variable of ``function``:
    True for a local address (an unplaced ``malloc``, a constant), the
    variable a copy reads, or False."""
    defs: Dict[str, list] = {name: [] for name, var in
                             function.variables.items()
                             if var.type.is_pointer}
    for stmt in function.body.basic_stmts():
        if isinstance(stmt, s.AllocStmt) and stmt.target in defs:
            defs[stmt.target].append(stmt.node is None)
        elif isinstance(stmt, s.AssignStmt) and \
                isinstance(stmt.lhs, s.VarLV) and stmt.lhs.name in defs:
            operand = stmt.rhs.operand \
                if isinstance(stmt.rhs, s.OperandRhs) else None
            defs[stmt.lhs.name].append(
                operand.name if isinstance(operand, s.VarUse)
                else isinstance(operand, s.Const))
        elif isinstance(stmt, s.CallStmt) and stmt.target in defs:
            defs[stmt.target].append(False)
        # A blkmov never defines a pointer variable directly.
    return defs


def _local_by_definition(function: s.SimpleFunction,
                         defs: Dict[str, list],
                         seeded: Set[str]) -> Set[str]:
    """Pointers of ``function`` all of whose definitions (``defs``)
    produce local addresses.  ``seeded`` are parameters already known
    local; the others are defined "from outside", and a pointer never
    defined stays non-local."""
    local: Set[str] = set(seeded)
    outside = {param.name for param in function.params
               if param.type.is_pointer and param.name not in seeded}
    candidates = [name for name, definitions in defs.items()
                  if definitions and name not in outside]
    changed = True
    while changed:
        changed = False
        for name in candidates:
            if name not in local and all(_holds(needs, local)
                                         for needs in defs[name]):
                local.add(name)
                changed = True
    return local


def analyze_locality(program: s.SimpleProgram) -> LocalityResult:
    """Infer local pointers and demote their accesses in place."""
    locals_map = _param_locality_fixpoint(program)
    local_vars: Set[Tuple[str, str]] = set()
    demoted = 0
    for function in program.functions.values():
        local_here = locals_map[function.name]
        for name in local_here:
            local_vars.add((function.name, name))
        demoted += _demote_accesses(function, local_here)
    return LocalityResult(local_vars, demoted)


def _demote_accesses(function: s.SimpleFunction,
                     local_here: Set[str]) -> int:
    demoted = 0
    for stmt in function.body.basic_stmts():
        if isinstance(stmt, s.AssignStmt):
            rhs = stmt.rhs
            if isinstance(rhs, (s.FieldReadRhs, s.DerefReadRhs,
                                s.IndexReadRhs)) and rhs.remote \
                    and rhs.base in local_here:
                rhs.remote = False
                demoted += 1
            lhs = stmt.lhs
            if isinstance(lhs, (s.FieldWriteLV, s.DerefWriteLV,
                                s.IndexWriteLV)) and lhs.remote \
                    and lhs.base in local_here:
                lhs.remote = False
                demoted += 1
    return demoted
