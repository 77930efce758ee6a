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
    fixpoint.  Returns, for each function, its full set of local
    pointers (parameters and locals).
    """
    local_params: Set[Tuple[str, str]] = set()
    locals_map: Dict[str, Set[str]] = {name: set()
                                       for name in program.functions}
    while True:
        # 1. Local pointer sets under the current parameter assumption.
        for function in program.functions.values():
            seeded = {p for (fname, p) in local_params
                      if fname == function.name}
            for name, var in function.variables.items():
                if var.type.is_pointer and var.type.is_local:
                    seeded.add(name)
            locals_map[function.name] = _local_by_definition(function,
                                                             seeded)
        # 2. Per-call-site verdicts for every (callee, param).
        verdict: Dict[Tuple[str, str], bool] = {}
        for function in program.functions.values():
            for stmt in function.body.basic_stmts():
                if not isinstance(stmt, s.CallStmt):
                    continue
                callee = program.functions.get(stmt.func)
                if callee is None:
                    continue
                owner_var = None
                placed = stmt.placement
                if placed is not None and placed[0] == "owner_of":
                    owner_var = placed[1]
                for arg, param in zip(stmt.args, callee.params):
                    if not param.type.is_pointer:
                        continue
                    key = (callee.name, param.name)
                    if owner_var is not None:
                        ok = isinstance(arg, s.VarUse) \
                            and arg.name == owner_var
                    elif placed is None:
                        if isinstance(arg, s.Const):
                            ok = arg.value == 0
                        elif isinstance(arg, s.VarUse):
                            ok = arg.name in locals_map[function.name]
                        else:
                            ok = False
                    else:
                        ok = False  # @node / @HOME: unknown destination
                    verdict[key] = verdict.get(key, True) and ok
        proven = {key for key, ok in verdict.items() if ok}
        if proven <= local_params:
            return locals_map
        local_params |= proven


def _local_by_definition(function: s.SimpleFunction,
                         seeded: Set[str]) -> Set[str]:
    """Pointers of ``function`` all of whose definitions produce local
    addresses.  ``seeded`` are parameters already known local."""
    # Gather every definition of every pointer variable.
    defs: Dict[str, list] = {name: [] for name, var in
                             function.variables.items()
                             if var.type.is_pointer}
    for stmt in function.body.basic_stmts():
        if isinstance(stmt, s.AllocStmt) and stmt.target in defs:
            defs[stmt.target].append(("alloc_local"
                                      if stmt.node is None else
                                      "alloc_placed", stmt))
        elif isinstance(stmt, s.AssignStmt) and \
                isinstance(stmt.lhs, s.VarLV) and stmt.lhs.name in defs:
            rhs = stmt.rhs
            if isinstance(rhs, s.OperandRhs) and \
                    isinstance(rhs.operand, s.VarUse):
                defs[stmt.lhs.name].append(("copy", rhs.operand.name))
            elif isinstance(rhs, s.OperandRhs) and \
                    isinstance(rhs.operand, s.Const):
                defs[stmt.lhs.name].append(("null", None))
            else:
                defs[stmt.lhs.name].append(("other", stmt))
        elif isinstance(stmt, s.CallStmt) and stmt.target in defs:
            defs[stmt.target].append(("other", stmt))
        elif isinstance(stmt, s.BlkmovStmt):
            pass  # blkmov never defines a pointer variable directly

    # Parameters without the seed are defined "from outside".
    local: Set[str] = set(seeded)
    candidates = set(defs)
    for param in function.params:
        if param.type.is_pointer and param.name not in seeded:
            candidates.discard(param.name)

    changed = True
    while changed:
        changed = False
        for name in list(candidates):
            if name in local:
                continue
            definitions = defs.get(name, [])
            if not definitions and name not in seeded:
                continue  # never defined: only NULL-ish, keep non-local
            ok = True
            for kind, payload in definitions:
                if kind in ("alloc_local", "null"):
                    continue
                if kind == "copy" and payload in local:
                    continue
                ok = False
                break
            if ok and definitions:
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
