"""Redundant remote access elimination (forwarding) tests."""

from collections import Counter

import pytest

from repro.analysis.connection import analyze_connection
from repro.comm.forwarding import forward_remote_values
from repro.simple import nodes as s
from tests.conftest import run_both, to_simple

NODE = "struct node { int v; int w; struct node *next; };"


def forwarded(source, func_name):
    simple = to_simple(source)
    conn = analyze_connection(simple)
    log = []
    forward_remote_values(simple.function(func_name), conn, log)
    return simple, Counter(record.rule for record in log)


def remote_read_count(simple, func_name):
    return sum(1 for st in simple.function(func_name).body.basic_stmts()
               if isinstance(st, s.AssignStmt) and st.remote_read())


class TestReadRead:
    def test_second_read_forwarded(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p) {
                int a; int b;
                a = p->v;
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 1
        assert remote_read_count(simple, "f") == 1

    def test_different_fields_not_merged(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p) {
                return p->v + p->w;
            }
        """, "f")
        assert rules.total() == 0

    def test_base_redefinition_kills(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p) {
                int a; int b;
                a = p->v;
                p = p->next;
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 0

    def test_holder_redefinition_kills(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p) {
                int a; int b;
                a = p->v;
                a = 0;
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 0

    def test_aliased_write_kills(self):
        simple, rules = forwarded(NODE + """
            int f() {
                struct node *p; struct node *q;
                int a; int b;
                p = (struct node *) malloc(sizeof(struct node)) @ 1;
                q = p;
                a = p->v;
                q->v = 9;
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 0

    def test_call_with_heap_write_kills(self):
        simple, rules = forwarded(NODE + """
            int poke(struct node *t) { t->v = 1; return 0; }
            int f(struct node *p) {
                int a; int b;
                a = p->v;
                poke(p);
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 0

    def test_facts_flow_into_conditionals(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p, int c) {
                int a; int b; b = 0;
                a = p->v;
                if (c) { b = p->v; }
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 1

    def test_facts_do_not_flow_out_of_conditionals(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p, int c) {
                int a; int b; a = 0;
                if (c) { a = p->v; }
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 0

    def test_loop_invariant_not_forwarded_across_iterations_unsoundly(self):
        # A write inside the loop kills the fact for later iterations;
        # the forwarding map entering the body must not contain it.
        simple, rules = forwarded(NODE + """
            int f(struct node *p, int n) {
                int a; int t; int i;
                a = p->v;
                t = 0;
                for (i = 0; i < n; i++) {
                    t = t + p->v;
                    p->v = t;
                }
                return a + t;
            }
        """, "f")
        assert rules.total() == 0


class TestStoreToLoad:
    def test_write_then_read_forwarded(self):
        # The paper's health pattern (Fig 11c): p->time_left written then
        # re-read.
        simple, rules = forwarded(NODE + """
            int f(struct node *p) {
                int t;
                t = p->v;
                t = t - 1;
                p->v = t;
                if (p->v == 0) return 1;
                return 0;
            }
        """, "f")
        assert rules["forward-store"] == 1

    def test_constant_store_forwarded(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p) {
                p->v = 5;
                return p->v;
            }
        """, "f")
        assert rules["forward-store"] == 1

    def test_store_value_redefined_kills(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p, int x) {
                p->v = x;
                x = 0;
                return p->v;
            }
        """, "f")
        assert rules["forward-store"] == 0

    def test_semantics_preserved_end_to_end(self):
        run_both(NODE + """
            int main() {
                struct node *p;
                int t;
                p = (struct node *) malloc(sizeof(struct node)) @ 1;
                p->v = 10;
                t = p->v;
                t = t - 1;
                p->v = t;
                if (p->v == 9) return p->v + p->v;
                return -1;
            }
        """, num_nodes=2)


class TestWholeStructOps:
    def test_blkmov_write_kills_overlapping(self):
        simple, rules = forwarded(NODE + """
            int f(struct node *p, struct node *q) {
                struct node buf;
                int a; int b;
                a = p->v;
                *q = buf;
                b = p->v;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 0

    def test_deref_scalar_forwarding(self):
        simple, rules = forwarded("""
            int f(int *p) {
                int a; int b;
                a = *p;
                b = *p;
                return a + b;
            }
        """, "f")
        assert rules["forward-load"] == 1
