"""Connection-analysis-style alias queries (paper terminology facade).

Ghiya & Hendren's connection analysis answers "may these two
heap-directed pointers point into the same data structure?", with
*anchor handles* distinguishing direct accesses through a pointer from
accesses through a possible alias.  Our implementation derives the same
queries from the Andersen points-to result and the read/write-set
records (which keep the syntactic base variable of each heap access, our
anchor handle):

* :meth:`connected` -- may two pointers reach the same object;
* :meth:`var_written` -- the paper's ``varWritten(p, S)``;
* :meth:`accessed_via_alias` -- the paper's
  ``accessedViaAlias(p, f, d, S, mode)``;
* :meth:`accessed_directly` -- the same question through ``p`` itself.

Every heap question is answered by :class:`EffectsAnalysis`, the one
reader of the records.

This is the exact interface the possible-placement rules of the paper's
Figure 5/6 consume.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.points_to import (
    PointsToResult,
    analyze_points_to,
    path_key,
)
from repro.analysis.rw_sets import EffectsAnalysis
from repro.frontend.types import FieldPath
from repro.simple import nodes as s


class ConnectionInfo:
    """Alias queries over one SIMPLE program."""

    def __init__(self, program: s.SimpleProgram, pts: PointsToResult,
                 effects: EffectsAnalysis):
        self.program = program
        self.pts = pts
        self.effects = effects

    def connected(self, func_a: str, var_a: str,
                  func_b: str, var_b: str) -> bool:
        """May the two pointers point into the same structure?"""
        return self.pts.may_alias_objects(func_a, var_a, func_b, var_b)

    def var_written(self, func: s.SimpleFunction, name: str,
                    stmt: s.Stmt) -> bool:
        return self.effects.var_written(func, name, stmt)

    def accessed_via_alias(self, func: s.SimpleFunction, base: str,
                           path: Optional[FieldPath], stmt: s.Stmt,
                           mode: str) -> bool:
        return self.effects.accessed_via_alias(
            func, base, path_key(path), stmt, mode)

    def accessed_directly(self, func: s.SimpleFunction, base: str,
                          path: Optional[FieldPath], stmt: s.Stmt,
                          mode: str) -> bool:
        """May the statement access ``base->path`` *through base itself*
        (the direct/anchored case the alias query excludes)?  Used by the
        sound variants of the kill rules."""
        return self.effects.accessed_directly(
            func, base, path_key(path), stmt, mode)


def analyze_connection(program: s.SimpleProgram) -> ConnectionInfo:
    """Build the alias facts of ``program`` as it stands now: solve
    points-to, decorate every statement with its read/write sets, and
    wrap both in the query interface.  This is the one place the three
    are put together; whoever changes statements afterwards asks again,
    unless the change cannot add an access (the optimizer keeps the
    result across forwarding, ``CommunicationOptimizer.run``)."""
    pts = analyze_points_to(program)
    return ConnectionInfo(program, pts, EffectsAnalysis(program, pts))
