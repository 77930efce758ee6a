"""Locality and nilness analysis tests."""

from repro.analysis.locality import analyze_locality
from repro.analysis.nilness import analyze_nilness
from repro.simple import nodes as s
from tests.conftest import to_simple

NODE = "struct node { int v; struct node *next; };"


def localize(source):
    simple = to_simple(source)
    result = analyze_locality(simple)
    return simple, result


class TestLocality:
    def test_declared_local_pointer(self):
        simple, result = localize(NODE + """
            int f(struct node local *p) { return p->v; }
        """)
        assert result.is_local("f", "p")

    def test_local_malloc_is_local(self):
        simple, result = localize(NODE + """
            int f() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return p->v;
            }
        """)
        assert result.is_local("f", "p")
        func = simple.function("f")
        reads = [st for st in func.body.basic_stmts()
                 if isinstance(st, s.AssignStmt)
                 and isinstance(st.rhs, s.FieldReadRhs)]
        assert all(not r.rhs.remote for r in reads)

    def test_placed_malloc_not_local(self):
        simple, result = localize(NODE + """
            int f() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node)) @ 1;
                return p->v;
            }
        """)
        assert not result.is_local("f", "p")

    def test_copy_of_local_is_local(self):
        simple, result = localize(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                return q->v;
            }
        """)
        assert result.is_local("f", "q")

    def test_mixed_definitions_not_local(self):
        simple, result = localize(NODE + """
            int f(struct node *remote) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p = remote;
                return p->v;
            }
        """)
        assert not result.is_local("f", "p")

    def test_owner_placed_param_is_local(self):
        simple, result = localize(NODE + """
            int reader(struct node *t) { return t->v; }
            int f(struct node *p) { return reader(p) @ OWNER_OF(p); }
        """)
        assert result.is_local("reader", "t")

    def test_unplaced_call_with_remote_arg_not_local(self):
        simple, result = localize(NODE + """
            int reader(struct node *t) { return t->v; }
            int f(struct node *p) { return reader(p); }
        """)
        assert not result.is_local("reader", "t")

    def test_interprocedural_local_arg_propagates(self):
        simple, result = localize(NODE + """
            int reader(struct node *t) { return t->v; }
            int f() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return reader(p);
            }
        """)
        assert result.is_local("reader", "t")

    def test_one_bad_call_site_spoils_param(self):
        simple, result = localize(NODE + """
            int reader(struct node *t) { return t->v; }
            int f(struct node *remote) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                reader(p);
                return reader(remote);
            }
        """)
        assert not result.is_local("reader", "t")

    def test_field_read_result_not_local(self):
        # A pointer loaded from the heap may target any node.
        simple, result = localize(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = p->next;
                return q->v;
            }
        """)
        assert not result.is_local("f", "q")


class TestNilness:
    def get_before(self, source, func_name, predicate):
        simple = to_simple(source)
        func = simple.function(func_name)
        result = analyze_nilness(func)
        for stmt in func.body.walk():
            if predicate(stmt):
                return {var for var in func.variables
                        if result.is_nonnil_before(stmt.label, var)}
        raise AssertionError("statement not found")

    @staticmethod
    def is_return(stmt):
        return isinstance(stmt, s.ReturnStmt)

    def test_malloc_establishes_nonnil(self):
        facts = self.get_before(NODE + """
            int f() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        """, "f", self.is_return)
        assert "p" in facts

    def test_guard_establishes_nonnil_in_then(self):
        source = NODE + """
            int f(struct node *p) {
                int t; t = 0;
                if (p != NULL) { t = 1; }
                return t;
            }
        """
        facts = self.get_before(
            source, "f",
            lambda st: isinstance(st, s.AssignStmt)
            and isinstance(st.lhs, s.VarLV) and st.lhs.name == "t"
            and isinstance(st.rhs, s.OperandRhs)
            and st.rhs.operand == s.Const(1))
        assert "p" in facts

    def test_negated_guard_in_else(self):
        source = NODE + """
            int f(struct node *p) {
                int t;
                if (p == NULL) { t = 1; }
                else { t = 2; }
                return t;
            }
        """
        facts = self.get_before(
            source, "f",
            lambda st: isinstance(st, s.AssignStmt)
            and isinstance(st.rhs, s.OperandRhs)
            and st.rhs.operand == s.Const(2))
        assert "p" in facts

    def test_merge_is_intersection(self):
        facts = self.get_before(NODE + """
            int f(struct node *p, int c) {
                struct node *q;
                if (c) { q = (struct node *) malloc(sizeof(struct node)); }
                else { q = NULL; }
                return 0;
            }
        """, "f", self.is_return)
        assert "q" not in facts

    def test_dereference_proves_nonnil_after(self):
        facts = self.get_before(NODE + """
            int f(struct node *p) {
                int t;
                t = p->v;
                return t;
            }
        """, "f", self.is_return)
        assert "p" in facts

    def test_loop_guard_facts_in_body(self):
        source = NODE + """
            int f(struct node *p) {
                int t; t = 0;
                while (p != NULL) { t = t + p->v; p = p->next; }
                return t;
            }
        """
        facts = self.get_before(
            source, "f",
            lambda st: isinstance(st, s.AssignStmt)
            and isinstance(st.rhs, s.FieldReadRhs)
            and str(st.rhs.path) == "v")
        assert "p" in facts

    def test_reassignment_kills_fact(self):
        facts = self.get_before(NODE + """
            int f(struct node *q) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p = q;
                return 0;
            }
        """, "f", self.is_return)
        assert "p" not in facts

    def test_copy_transfers_fact(self):
        facts = self.get_before(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                return 0;
            }
        """, "f", self.is_return)
        assert "q" in facts

    def test_nonzero_constant_is_nonnil(self):
        facts = self.get_before("""
            int f() { int x; x = 5; return x; }
        """, "f", self.is_return)
        assert "x" in facts

    def test_call_result_unknown(self):
        facts = self.get_before(NODE + """
            struct node *make() { return NULL; }
            int f() { struct node *p; p = make(); return 0; }
        """, "f", self.is_return)
        assert "p" not in facts
