"""Read/write set (effects) analysis tests."""

import collections
import pathlib

import repro
from repro.analysis.connection import ConnectionInfo
from repro.analysis.points_to import analyze_points_to
from repro.analysis.rw_sets import (
    UNKNOWN,
    Effects,
    EffectsAnalysis,
    keys_overlap,
    may_hit,
)
from repro.frontend.types import FieldPath
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import get_benchmark
from repro.simple import nodes as s
from tests.conftest import to_simple

NODE = "struct node { int v; int w; struct node *next; };"


def build(source):
    simple = to_simple(source)
    pts = analyze_points_to(simple)
    effects = EffectsAnalysis(simple, pts)
    return simple, effects, ConnectionInfo(simple, pts, effects)


def find_stmt(func, predicate):
    for stmt in func.body.walk():
        if predicate(stmt):
            return stmt
    raise AssertionError("statement not found")


class TestKeysOverlap:
    def test_equal_keys(self):
        assert keys_overlap(("v",), ("v",))

    def test_distinct_fields(self):
        assert not keys_overlap(("v",), ("w",))

    def test_star_overlaps_everything(self):
        assert keys_overlap(("*",), ("v",))
        assert keys_overlap(("v",), ("*",))

    def test_prefix_nesting(self):
        assert keys_overlap(("a",), ("a", "b"))
        assert keys_overlap(("a", "b"), ("a",))
        assert not keys_overlap(("a", "b"), ("a", "c"))


class TestRecords:
    """An effect record is the paper's ``(base, loc, key)`` triple."""

    def test_records_are_triples_in_sets(self):
        simple, effects, _ = build(NODE + """
            int f(struct node *p) { p->w = p->v; return 0; }
        """)
        func = simple.function("f")
        recorded = effects.effects(func, func.body)
        assert {(base, key) for base, _, key in recorded.heap_reads} \
            == {("p", ("v",))}
        assert {(base, key) for base, _, key in recorded.heap_writes} \
            == {("p", ("w",))}
        # An unknown points-to set is one record of the unknown object.
        assert {loc for _, loc, _ in recorded.heap_reads} == {UNKNOWN}

    def test_a_merge_reports_growth_once(self):
        simple, effects, _ = build(NODE + """
            int f(struct node *p) { p->v = 1; return 0; }
        """)
        func = simple.function("f")
        recorded = effects.effects(func, func.body)
        summary = Effects()
        assert summary.merge(recorded)
        assert not summary.merge(recorded)
        assert summary.heap_writes == recorded.heap_writes

    def test_the_may_hit_rule(self):
        a, b = ("heap", "f", 1), ("heap", "f", 2)
        assert may_hit(a, {a, b})
        assert not may_hit(a, {b})
        assert may_hit(a, frozenset())       # an empty set is unknown
        assert may_hit(UNKNOWN, {b})         # so is the unknown object


class TestBasicEffects:
    SRC = NODE + """
        int f(struct node *p, struct node *q) {
            int x;
            x = p->v;
            q->w = x;
            return x;
        }
    """

    def test_read_effect_recorded_with_base(self):
        simple, effects, _ = build(self.SRC)
        func = simple.function("f")
        read = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                         and isinstance(st.rhs, s.FieldReadRhs))
        recorded = effects.effects(func, read)
        assert any(base == "p" and key == ("v",)
                   for base, _, key in recorded.heap_reads)
        assert not recorded.heap_writes

    def test_write_effect_recorded(self):
        simple, effects, _ = build(self.SRC)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        recorded = effects.effects(func, write)
        assert any(base == "q" and key == ("w",)
                   for base, _, key in recorded.heap_writes)

    def test_compound_aggregates_children(self):
        simple, effects, _ = build(NODE + """
            int f(struct node *p) {
                int t; t = 0;
                while (p != NULL) { t = t + p->v; p = p->next; }
                return t;
            }
        """)
        func = simple.function("f")
        loop = find_stmt(func, lambda st: isinstance(st, s.WhileStmt))
        recorded = effects.effects(func, loop)
        assert "p" in recorded.var_writes  # p reassigned in the body
        assert any(key == ("v",) for _, _, key in recorded.heap_reads)


class TestSummaries:
    def test_callee_heap_writes_visible_at_call(self):
        simple, effects, _ = build(NODE + """
            int poke(struct node *t) { t->v = 1; return 0; }
            int f(struct node *p) { return poke(p); }
        """)
        func = simple.function("f")
        call = find_stmt(func, lambda st: isinstance(st, s.CallStmt)
                         and st.func == "poke")
        recorded = effects.effects(func, call)
        assert any(base is None and key == ("v",)
                   for base, _, key in recorded.heap_writes)

    def test_recursive_summary_converges(self):
        simple, effects, _ = build(NODE + """
            int walk(struct node *t) {
                if (t == NULL) return 0;
                t->v = 1;
                return walk(t->next);
            }
        """)
        summary = effects.summary("walk")
        assert any(key == ("v",) for _, _, key in summary.heap_writes)

    def test_callee_locals_not_in_summary(self):
        simple, effects, _ = build("""
            int g() { int hidden; hidden = 3; return hidden; }
            int f() { return g(); }
        """)
        summary = effects.summary("g")
        assert "hidden" not in summary.var_writes

    def test_global_writes_in_summary(self):
        simple, effects, _ = build("""
            int counter;
            int bump() { counter = counter + 1; return counter; }
            int f() { return bump(); }
        """)
        summary = effects.summary("bump")
        assert "counter" in summary.var_writes


class TestAliasQueries:
    def test_direct_access_is_not_alias(self):
        simple, effects, conn = build(NODE + """
            int f(struct node *p) {
                p->v = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        # via alias: no (anchor handle excludes p itself)
        assert not conn.accessed_via_alias(func, "p",
                                           FieldPath.single("v"),
                                           write, "write")
        # directly: yes
        assert conn.accessed_directly(func, "p", FieldPath.single("v"),
                                      write, "write")

    def test_aliased_write_detected(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                q->v = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert conn.accessed_via_alias(func, "p", FieldPath.single("v"),
                                       write, "write")

    def test_disjoint_objects_not_aliased(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = (struct node *) malloc(sizeof(struct node));
                q->v = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert not conn.accessed_via_alias(func, "p",
                                           FieldPath.single("v"),
                                           write, "write")

    def test_different_field_no_overlap(self):
        simple, effects, conn = build(NODE + """
            int f(struct node *p, struct node *q) {
                q->w = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert not conn.accessed_via_alias(func, "p",
                                           FieldPath.single("v"),
                                           write, "write")

    def test_blkmov_write_overlaps_all_fields(self):
        simple, effects, conn = build(NODE + """
            int f(struct node *p, struct node *q) {
                struct node buf;
                *q = buf;
                return p->v;
            }
        """)
        func = simple.function("f")
        blk = find_stmt(func, lambda st: isinstance(st, s.BlkmovStmt)
                        and st.dst[0] == "ptr")
        assert conn.accessed_via_alias(func, "p", FieldPath.single("v"),
                                       blk, "write")

    def test_var_written_via_call_on_global(self):
        simple, effects, conn = build("""
            int g;
            int set() { g = 5; return 0; }
            int f() { int t; t = g; set(); return t + g; }
        """)
        func = simple.function("f")
        call = find_stmt(func, lambda st: isinstance(st, s.CallStmt)
                         and st.func == "set")
        assert conn.var_written(func, "g", call)

    def test_may_write_counts_every_handle(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q; struct node *r;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                r = (struct node *) malloc(sizeof(struct node));
                q->v = 1;
                return p->v + r->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert effects.may_write(func, "q", ("v",), write)   # directly
        assert effects.may_write(func, "p", ("*",), write)   # via alias
        assert not effects.may_write(func, "p", ("w",), write)
        assert not effects.may_write(func, "r", ("v",), write)

    def test_connected_relation(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q; struct node *r;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                r = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        """)
        assert conn.connected("f", "p", "f", "q")
        assert not conn.connected("f", "p", "f", "r")


class TestOneEffectsTable:
    """An analysis decorates each basic statement once, however many
    summary rounds and queries follow."""

    def count_basic_effects(self, monkeypatch):
        calls = collections.Counter()
        original = EffectsAnalysis._basic_effects

        def counted(analysis, func, stmt):
            # Keyed by the analysis itself, which also keeps it alive:
            # a freed one's id could be reused by the next phase's.
            calls[analysis, func.name, stmt.label] += 1
            return original(analysis, func, stmt)

        monkeypatch.setattr(EffectsAnalysis, "_basic_effects", counted)
        return calls

    def test_recursive_summaries_and_repeated_queries(self, monkeypatch):
        calls = self.count_basic_effects(monkeypatch)
        simple, effects, conn = build(NODE + """
            int g;
            int odd(struct node *p);
            int even(struct node *p) {
                if (p == NULL) return 1;
                g = g + 1;
                return odd(p->next);
            }
            int odd(struct node *p) {
                if (p == NULL) return 0;
                p->v = g;
                return even(p->next);
            }
            int f(struct node *p) { return even(p); }
        """)
        for _ in range(2):
            for func in simple.functions.values():
                for stmt in func.body.walk():
                    effects.effects(func, stmt)
        basic = sum(len(list(func.body.basic_stmts()))
                    for func in simple.functions.values())
        assert len(calls) == basic and set(calls.values()) == {1}
        # The mutual recursion did reach its fixed point.
        assert "g" in effects.summary("f").var_writes
        assert effects.summary("f").heap_writes

    def test_whole_optimizing_compile(self, monkeypatch):
        calls = self.count_basic_effects(monkeypatch)
        spec = get_benchmark("health")
        compile_earthc(spec.source(), spec.filename, optimize=True,
                       config=repro.CommConfig(opt="probabilistic"))
        analyses = {key[0] for key in calls}
        assert len(analyses) == 2    # forwarding and reads, writes
        assert set(calls.values()) == {1}

    def test_one_construction_site_in_the_product(self):
        root = pathlib.Path(repro.__file__).parent
        sites = [str(path.relative_to(root))
                 for path in sorted(root.rglob("*.py"))
                 if path.name != "rw_sets.py"
                 for line in path.read_text().splitlines()
                 if "EffectsAnalysis(" in line]
        assert sites == ["analysis/connection.py"]
