"""Possible-placement analysis tests.

The centerpiece reproduces the paper's Figure 7: the RemoteReads sets of
the closest-point program, including the frequency arithmetic
(loop x10, merge by summation) and the kill rules.
"""

import pytest

from repro.analysis.connection import analyze_connection
from repro.comm.placement import analyze_placement
from repro.simple import nodes as s
from tests.conftest import to_simple

FIG7_SOURCE = """
struct point { double x; double y; struct point *next; };

double f(double ax, double ay, double bx, double by) {
    return ax - bx + ay - by;
}

double find_close(struct point *head, struct point *t, double epsilon)
{
    struct point *p;
    struct point *close;
    double ax; double ay; double bx; double by; double dist;
    double cx; double tx; double diffx; double cy; double ty; double diffy;
    close = NULL;
    p = head;
    while (p != NULL) {
        ax = p->x;
        ay = p->y;
        bx = t->x;
        by = t->y;
        dist = f(ax, ay, bx, by);
        if (dist < epsilon)
            close = p;
        p = p->next;
    }
    cx = close->x;
    tx = t->x;
    diffx = cx - tx;
    cy = close->y;
    ty = t->y;
    diffy = cy - ty;
    return diffx + diffy;
}
"""


def analyzed(source, func_name):
    simple = to_simple(source)
    conn = analyze_connection(simple)
    func = simple.function(func_name)
    return func, analyze_placement(func, conn)


def field_read_stmt(func, base, field):
    for stmt in func.body.basic_stmts():
        if isinstance(stmt, s.AssignStmt) and \
                isinstance(stmt.rhs, s.FieldReadRhs) and \
                stmt.rhs.base == base and str(stmt.rhs.path) == field:
            return stmt
    raise AssertionError(f"no read of {base}->{field}")


def tuple_at(result, label, base, field):
    key = (base, (field,) if field else None)
    return result.remote_reads(label).get(key)


class TestFigure7:
    def setup_method(self):
        self.func, self.result = analyzed(FIG7_SOURCE, "find_close")
        self.first_label = self.func.body.stmts[0].label

    def test_t_tuples_reach_function_entry_with_merged_frequency(self):
        # The paper: {(t->x, 11, S11:S4), (t->y, 11, S12:S7)} at S1.
        for field in ("x", "y"):
            tup = tuple_at(self.result, self.first_label, "t", field)
            assert tup is not None, field
            assert tup.freq == pytest.approx(11.0)
            assert len(tup.dlist) == 2  # loop origin + after-loop origin

    def test_t_dlists_contain_both_origins(self):
        in_loop = field_read_stmt(self.func, "t", "x")
        tup = tuple_at(self.result, self.first_label, "t", "x")
        assert in_loop.label in tup.dlist

    def test_p_tuples_killed_above_loop(self):
        # p is written inside the loop, so no p tuple escapes it.
        assert tuple_at(self.result, self.first_label, "p", "x") is None
        assert tuple_at(self.result, self.first_label, "p", "next") is None

    def test_close_tuples_killed_above_loop(self):
        # close is written inside the loop (conditionally).
        assert tuple_at(self.result, self.first_label, "close", "x") is None

    def test_p_tuples_at_loop_body_top(self):
        loop = next(st for st in self.func.body.walk()
                    if isinstance(st, s.WhileStmt))
        top_label = loop.body.stmts[0].label
        for field in ("x", "y", "next"):
            tup = tuple_at(self.result, top_label, "p", field)
            assert tup is not None, field
            assert tup.freq == pytest.approx(1.0)

    def test_close_tuples_after_loop(self):
        after = field_read_stmt(self.func, "close", "x")
        tup = tuple_at(self.result, after.label, "close", "x")
        assert tup is not None
        assert tup.freq == pytest.approx(1.0)

    def test_backward_ordering_within_body(self):
        # Inside the body, (p->x, S9) is not placeable before itself
        # only -- it IS in its own annotation; but (p->next) is
        # annotated everywhere above its origin up to the body top.
        loop = next(st for st in self.func.body.walk()
                    if isinstance(st, s.WhileStmt))
        body = loop.body
        next_read = field_read_stmt(self.func, "p", "next")
        for stmt in body.stmts:
            tup = tuple_at(self.result, stmt.label, "p", "next")
            assert tup is not None
            if stmt is next_read:
                break


class TestKillRules:
    NODE = "struct node { int v; int w; struct node *next; };"

    def first_label(self, func):
        return func.body.stmts[0].label

    def test_direct_same_field_write_kills_read(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p) {
                p->v = 1;
                return p->v;
            }
        """, "f")
        assert tuple_at(result, self.first_label(func), "p", "v") is None

    def test_different_field_write_does_not_kill(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p) {
                p->w = 1;
                return p->v;
            }
        """, "f")
        assert tuple_at(result, self.first_label(func), "p", "v") \
            is not None

    def test_aliased_write_kills(self):
        func, result = analyzed(self.NODE + """
            int f() {
                struct node *p; struct node *q; int t;
                p = (struct node *) malloc(sizeof(struct node)) @ 1;
                q = p;
                q->v = 3;
                t = p->v;
                return t;
            }
        """, "f")
        read = field_read_stmt(func, "p", "v")
        write = next(st for st in func.body.basic_stmts()
                     if isinstance(st, s.AssignStmt)
                     and isinstance(st.lhs, s.FieldWriteLV))
        # The tuple must not be annotated above the aliased write.
        assert tuple_at(result, write.label, "p", "v") is None
        assert tuple_at(result, read.label, "p", "v") is not None

    def test_base_redefinition_kills(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *a, struct node *b) {
                struct node *p; int t;
                p = a;
                p = b;
                t = p->v;
                return t;
            }
        """, "f")
        # The read may move above `p = b`? No: p changes meaning.
        redef = [st for st in func.body.basic_stmts()
                 if isinstance(st, s.AssignStmt)
                 and isinstance(st.lhs, s.VarLV) and st.lhs.name == "p"]
        assert tuple_at(result, redef[1].label, "p", "v") is None

    def test_call_with_heap_write_kills(self):
        func, result = analyzed(self.NODE + """
            int poke(struct node *x) { x->v = 9; return 0; }
            int f(struct node *p) {
                poke(p);
                return p->v;
            }
        """, "f")
        assert tuple_at(result, self.first_label(func), "p", "v") is None

    def test_pure_call_does_not_kill(self):
        func, result = analyzed(self.NODE + """
            int pure(int x) { return x + 1; }
            int f(struct node *p) {
                int a;
                a = pure(3);
                return p->v + a;
            }
        """, "f")
        assert tuple_at(result, self.first_label(func), "p", "v") \
            is not None


class TestConditionalRules:
    NODE = "struct node { int v; int w; struct node *next; };"

    def test_if_reads_halve_frequency(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int c) {
                int t; t = 0;
                if (c) { t = p->v; }
                return t;
            }
        """, "f")
        tup = tuple_at(result, func.body.stmts[0].label, "p", "v")
        assert tup is not None
        assert tup.freq == pytest.approx(0.5)

    def test_if_reads_from_both_arms_merge(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int c) {
                int t;
                if (c) { t = p->v; }
                else { t = p->v + 1; }
                return t;
            }
        """, "f")
        tup = tuple_at(result, func.body.stmts[0].label, "p", "v")
        assert tup.freq == pytest.approx(1.0)
        assert len(tup.dlist) == 2

    def test_switch_divides_by_alternatives(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int c) {
                int t; t = 0;
                switch (c) {
                case 0: t = p->v; break;
                case 1: t = 1; break;
                case 2: t = 2; break;
                case 3: t = 3; break;
                }
                return t;
            }
        """, "f")
        tup = tuple_at(result, func.body.stmts[0].label, "p", "v")
        assert tup.freq == pytest.approx(0.25)

    def test_loop_multiplies_by_ten(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int n) {
                int i; int t; t = 0;
                for (i = 0; i < n; i++) { t = t + p->v; }
                return t;
            }
        """, "f")
        tup = tuple_at(result, func.body.stmts[0].label, "p", "v")
        assert tup is not None
        assert tup.freq == pytest.approx(10.0)


class TestWriteRules:
    NODE = "struct node { int v; int w; struct node *next; };"

    def write_after(self, result, label, base, field):
        key = (base, (field,) if field else None)
        return result.remote_writes(label).get(key)

    def test_write_sinks_to_function_end(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int x) {
                int t;
                p->v = x;
                t = x * 2;
                return t;
            }
        """, "f")
        # The write is placeable after `t = x * 2` (the stmt before the
        # return) but not after the return.
        ret = func.body.stmts[-1]
        before_ret = func.body.stmts[-2]
        assert self.write_after(result, before_ret.label, "p", "v") \
            is not None
        assert self.write_after(result, ret.label, "p", "v") is None

    def test_write_blocked_by_direct_read(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int x) {
                int t;
                p->v = x;
                t = p->v;
                return t;
            }
        """, "f")
        read = field_read_stmt(func, "p", "v")
        assert self.write_after(result, read.label, "p", "v") is None

    def test_write_escapes_if_only_when_in_all_alternatives(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int c) {
                int t;
                if (c) { p->v = 1; }
                else { p->v = 2; }
                t = c + 1;
                return t;
            }
        """, "f")
        if_stmt = next(st for st in func.body.stmts
                       if isinstance(st, s.IfStmt))
        tup = self.write_after(result, if_stmt.label, "p", "v")
        assert tup is not None
        assert len(tup.dlist) == 2

    def test_write_in_one_arm_does_not_escape(self):
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int c) {
                int t;
                if (c) { p->v = 1; }
                t = c + 1;
                return t;
            }
        """, "f")
        if_stmt = next(st for st in func.body.stmts
                       if isinstance(st, s.IfStmt))
        assert self.write_after(result, if_stmt.label, "p", "v") is None

    def test_write_escapes_do_loop_but_not_while(self):
        def make_source(loop):
            return self.NODE + """
                int f(struct node *p, int n) {
                    int i; i = 0;
                    %s
                    i = i + 7;
                    return i;
                }
            """ % loop
        do_src = make_source(
            "do { p->v = i; i = i + 1; } while (i < n);")
        while_src = make_source(
            "while (i < n) { p->v = i; i = i + 1; }")
        for src, escapes in ((do_src, True), (while_src, False)):
            func, result = analyzed(src, "f")
            loop = next(st for st in func.body.walk()
                        if isinstance(st, (s.DoStmt, s.WhileStmt)))
            tup = self.write_after(result, loop.label, "p", "v")
            assert (tup is not None) == escapes, src

    def test_write_killed_by_early_return_path(self):
        # The perimeter miscompile regression: a write must not sink
        # below an if whose arm returns.
        func, result = analyzed(self.NODE + """
            int f(struct node *p, int c) {
                int t;
                p->v = 1;
                if (c) { return 0; }
                t = c + 1;
                return t;
            }
        """, "f")
        if_stmt = next(st for st in func.body.stmts
                       if isinstance(st, s.IfStmt))
        assert self.write_after(result, if_stmt.label, "p", "v") is None


class TestParallelSiblings:
    """A ``{^ ^}`` branch's tuple leaves the parallel statement only if
    no sibling branch may invalidate it (``_collect_par``)."""

    NODE = "struct node { int v; int w; struct node *next; };"

    def read_above_par(self, sibling):
        func, result = analyzed(self.NODE + f"""
            int f(struct node *p) {{
                int a; int b;
                b = 0;
                {{^ a = p->v; {sibling} ^}}
                return a + b;
            }}
        """, "f")
        assert any(isinstance(stmt, s.ParStmt) for stmt in func.body.walk())
        return tuple_at(result, func.body.stmts[0].label, "p", "v")

    def test_a_sibling_write_of_the_field_kills_the_read(self):
        assert self.read_above_par("p->v = 7;") is None

    def test_an_untouched_field_is_passed_out(self):
        tup = self.read_above_par("b = 3;")
        assert tup is not None
        assert tup.freq == pytest.approx(1.0)
