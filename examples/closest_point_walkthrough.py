#!/usr/bin/env python3
"""Walkthrough of the paper's running example (Figures 7 and 8).

Reproduces, step by step:

1. the per-statement RemoteReads sets of possible-placement analysis
   (the table in the paper's Figure 7), including the frequency
   arithmetic -- tuples generated inside the loop escape with frequency
   x10 and merge with the after-loop tuples into ``(t->x, 11, S11:S4)``;
2. the transformed program of Figure 8(b): ``comm1``/``comm2`` hoisted
   to the function entry, one ``blkmov`` per iteration replacing three
   scalar reads, and the redundant ``t`` reads after the loop served
   from the hoisted values.

Run:  python examples/closest_point_walkthrough.py
"""

from repro.analysis.connection import analyze_connection
from repro.comm.placement import analyze_placement
from repro.frontend.goto_elim import eliminate_gotos
from repro.frontend.parser import parse_program
from repro.frontend.simplify import simplify_program
from repro.frontend.typecheck import check_program
from repro.comm.optimizer import optimize_program
from repro.simple import nodes as s
from repro.simple.printer import print_function

SOURCE = """
struct point { double x; double y; struct point *next; };

double dist(double ax, double ay, double bx, double by) {
    double dx; double dy;
    dx = ax - bx;
    dy = ay - by;
    return sqrt(dx * dx + dy * dy);
}

struct point *find_close(struct point *head, struct point *t,
                         double epsilon)
{
    struct point *p;
    struct point *close;
    double ax; double ay; double bx; double by; double d;
    double cx; double tx; double diffx;
    close = NULL;
    p = head;
    while (p != NULL) {
        ax = p->x;
        ay = p->y;
        bx = t->x;
        by = t->y;
        d = dist(ax, ay, bx, by);
        if (d < epsilon)
            close = p;
        p = p->next;
    }
    cx = close->x;
    tx = t->x;
    diffx = cx - tx;
    return close;
}
"""


def compile_to_simple(source):
    program = parse_program(source, "fig7.ec")
    eliminate_gotos(program)
    symbols = check_program(program)
    return simplify_program(program, symbols)


def main():
    simple = compile_to_simple(SOURCE)
    func = simple.function("find_close")

    print("=" * 72)
    print("SIMPLE form (paper Figure 7's program)")
    print("=" * 72)
    print(print_function(func))
    print()

    # --- Figure 7: possible-placement annotations -----------------------
    conn = analyze_connection(simple)
    placement = analyze_placement(func, conn)

    print("=" * 72)
    print("RemoteReads(S) per statement (paper Figure 7)")
    print("=" * 72)
    for stmt in func.body.walk():
        if isinstance(stmt, (s.SeqStmt,)):
            continue
        annotation = placement.remote_reads(stmt.label)
        if len(annotation):
            print(f"  S{stmt.label:<4} {annotation}")
    print()
    first = func.body.stmts[0]
    entry = placement.remote_reads(first.label)
    print("At the function entry (the paper's S1):")
    print(f"  {entry}")
    print("  -> note (t->x) and (t->y) carry frequency 11 = 1 + 10:")
    print("     one after-loop read merged with the loop read scaled x10.")
    print()

    # --- Figure 8: the transformation -----------------------------------
    simple2 = compile_to_simple(SOURCE)
    optimize_program(simple2)
    print("=" * 72)
    print("After communication selection (paper Figure 8b)")
    print("=" * 72)
    print(print_function(simple2.function("find_close")))


if __name__ == "__main__":
    main()
