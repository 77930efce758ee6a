"""Simplifier (AST -> SIMPLE) tests: structural invariants plus executed
semantics of the lowered constructs."""

import pytest

from repro.errors import SimplifyError
from repro.simple import nodes as s
from repro.simple.validate import validate_program
from tests.conftest import run_value, to_simple

POINT = "struct point { double x; double y; };"
NODE = "struct node { int v; struct node *next; };"


def basic_stmts(simple, func):
    return list(simple.function(func).body.basic_stmts())


class TestThreeAddressForm:
    def test_distance_splits_into_temps(self):
        simple = to_simple(POINT + """
            double distance(struct point *p) {
                return sqrt(p->x * p->x + p->y * p->y);
            }
        """)
        stmts = basic_stmts(simple, "distance")
        reads = [st for st in stmts
                 if isinstance(st, s.AssignStmt)
                 and isinstance(st.rhs, s.FieldReadRhs)]
        assert len(reads) == 4  # one per syntactic access, pre-optimizer

    def test_at_most_one_remote_op_per_stmt(self):
        simple = to_simple(NODE + """
            int f(struct node *p, struct node *q) {
                p->v = q->v;
                return 0;
            }
        """)
        stats = validate_program(simple)
        assert stats.remote_reads == 1
        assert stats.remote_writes == 1

    def test_condition_operands_are_simple(self):
        simple = to_simple(NODE + """
            int f(struct node *p) {
                int n; n = 0;
                while (p->v > 10) { p = p->next; n = n + 1; }
                return n;
            }
        """)
        for stmt in simple.function("f").body.walk():
            if isinstance(stmt, s.WhileStmt):
                for operand in stmt.cond.operands():
                    assert isinstance(operand, (s.VarUse, s.Const))

    def test_loop_condition_reevaluated_each_iteration(self):
        value = run_value(NODE + """
            int main() {
                struct node *a; struct node *b;
                a = (struct node *) malloc(sizeof(struct node));
                b = (struct node *) malloc(sizeof(struct node));
                a->v = 3; a->next = b;
                b->v = 0; b->next = NULL;
                {
                    int n; struct node *p;
                    n = 0;
                    p = a;
                    while (p != NULL && p->v > 0) { p = p->next; n = n + 1; }
                    return n;
                }
            }
        """)
        assert value == 1

    def test_nested_field_path(self):
        simple = to_simple("""
            struct hosp { int free; };
            struct village { struct hosp h; };
            int f(struct village *v) { return v->h.free; }
        """)
        stmts = basic_stmts(simple, "f")
        read = next(st for st in stmts
                    if isinstance(st, s.AssignStmt)
                    and isinstance(st.rhs, s.FieldReadRhs))
        assert str(read.rhs.path) == "h.free"

    def test_labels_unique(self):
        simple = to_simple("int f(int x) { return x + 1; }"
                           "int g(int x) { return x - 1; }")
        labels = [st.label for fn in simple.functions.values()
                  for st in fn.body.walk()]
        assert len(labels) == len(set(labels))


class TestExpressionLowering:
    def test_short_circuit_and(self):
        src = NODE + """
            int main() {
                struct node *p; p = NULL;
                if (p != NULL && p->v == 1) return 1;
                return 2;
            }
        """
        # Without short-circuiting this would nil-fault.
        assert run_value(src) == 2

    def test_short_circuit_or(self):
        src = NODE + """
            int main() {
                struct node *p; p = NULL;
                if (p == NULL || p->v == 1) return 1;
                return 2;
            }
        """
        assert run_value(src) == 1

    def test_ternary(self):
        assert run_value("int main(int x) { return x > 0 ? 10 : 20; }",
                         args=(5,)) == 10
        assert run_value("int main(int x) { return x > 0 ? 10 : 20; }",
                         args=(-5,)) == 20

    def test_increment_forms(self):
        assert run_value("""
            int main() {
                int i; int t;
                i = 0; t = 0;
                i++; ++i; i--;
                t += i;
                t *= 3;
                return t;
            }
        """) == 3

    def test_char_literal_value(self):
        assert run_value("int main() { return 'A'; }") == 65

    def test_cast_double_to_int_truncates(self):
        assert run_value("int main() { double d; d = 3.9; "
                         "return (int) d; }") == 3

    def test_negative_division_truncates_toward_zero(self):
        assert run_value("int main() { return -7 / 2; }") == -3
        assert run_value("int main() { return -7 % 2; }") == -1

    def test_pointer_arithmetic_scaled_for_doubles(self):
        simple = to_simple("double f(double *a) { return *(a + 2); }")
        stmts = basic_stmts(simple, "f")
        scaled = [st for st in stmts
                  if isinstance(st, s.AssignStmt)
                  and isinstance(st.rhs, s.BinaryRhs)
                  and st.rhs.op == "*"]
        assert scaled, "index must be scaled by the 2-word double size"

    def test_sizeof_in_words(self):
        assert run_value(POINT +
                         "int main() { return sizeof(struct point); }") == 4


class TestStructAssignment:
    def test_struct_copy_via_pointer_becomes_blkmov(self):
        simple = to_simple(POINT + """
            int f(struct point *p) {
                struct point local_copy;
                local_copy = *p;
                return 0;
            }
        """)
        stats = validate_program(simple)
        assert stats.blkmovs == 1

    def test_remote_to_remote_staged_through_buffer(self):
        simple = to_simple(POINT + """
            int f(struct point *p, struct point *q) {
                *p = *q;
                return 0;
            }
        """)
        stats = validate_program(simple)
        assert stats.blkmovs == 2  # in and out of a staging buffer

    def test_struct_field_copy_offsets(self):
        value = run_value("""
            struct inner { int a; int b; };
            struct outer { int tag; struct inner payload; };
            int main() {
                struct outer *p;
                struct inner buf;
                p = (struct outer *) malloc(sizeof(struct outer));
                p->tag = 9;
                p->payload.a = 3;
                p->payload.b = 4;
                buf = p->payload;
                return buf.a * 10 + buf.b;
            }
        """)
        assert value == 34

    def test_whole_struct_roundtrip(self):
        value = run_value(POINT + """
            int main() {
                struct point *p;
                struct point buf;
                p = (struct point *) malloc(sizeof(struct point));
                p->x = 1.5; p->y = 2.5;
                buf = *p;
                buf.x = buf.x + 1.0;
                *p = buf;
                return (int) (p->x * 10.0 + p->y);
            }
        """)
        assert value == 27


class TestScoping:
    def test_shadowed_locals_renamed(self):
        value = run_value("""
            int main() {
                int x; x = 1;
                if (x) { int x; x = 50; }
                return x;
            }
        """)
        assert value == 1

    def test_sibling_scopes_reuse_name(self):
        value = run_value("""
            int main() {
                int t; t = 0;
                if (1) { int a; a = 3; t = t + a; }
                if (1) { int a; a = 4; t = t + a; }
                return t;
            }
        """)
        assert value == 7


class TestRestrictions:
    def test_address_of_stack_scalar_rejected(self):
        with pytest.raises(SimplifyError):
            to_simple("int g(int *p) { return *p; }"
                      "int main() { int x; x = 1; return g(&x); }")

    def test_struct_param_rejected(self):
        with pytest.raises(SimplifyError):
            to_simple(POINT + "int f(struct point p) { return 0; }")

    def test_struct_return_rejected(self):
        with pytest.raises(SimplifyError):
            to_simple(POINT + "struct point f() { struct point p; "
                      "return p; }")

    def test_forall_complex_condition_rejected(self):
        with pytest.raises(SimplifyError):
            to_simple(NODE + """
                int f(struct node *h) {
                    struct node *p;
                    forall (p = h; p->v > 0; p = p->next) ;
                    return 0;
                }
            """)

    def test_blkmov_size_must_be_constant(self):
        with pytest.raises(SimplifyError):
            to_simple(POINT + """
                int f(struct point *p, int n) {
                    struct point buf;
                    blkmov(p, &buf, n);
                    return 0;
                }
            """)

    @pytest.mark.parametrize("body,what,column", [
        ("a = b = 3;", "an assignment", 7),
        ("a = i++;", "`++`", 6),
        ("a = --i;", "`--`", 5),
        ("if ((a = b) != 0) a = 1;", "an assignment", 8),
        ("a = id(a = 4);", "an assignment", 10),
        ("return (a = 3);", "an assignment", 11),
    ])
    def test_assignment_used_as_a_value_is_named(self, body, what, column):
        """Not "nests too deeply": `_lower_value` and `_lower_rhs` used
        to hand the node to each other until the host stack ran out."""
        with pytest.raises(SimplifyError) as refused:
            to_simple("int id(int x) { return x; }\n"
                      "int main() { int a; int b; int i;\n"
                      + body + "\nreturn a; }")
        assert str(refused.value).startswith(
            f"<test>:3:{column}: {what} used as a value is not supported")

    def test_statement_position_assignments_still_lower(self):
        assert run_value("int main() { int a; int i; i = 2; i++; --i; "
                         "for (a = 0; a < 3; a++) i += a; return i; }") == 5

    @pytest.mark.parametrize("decl,use,loc", [
        ("int g[4];", "g[1] = 5; return g[1];", "2:15"),
        ("int g[4];", "*g = 5; return 0;", "2:14"),
        ("", "int a[4]; a[1] = 5; return a[1];", "2:25"),
        (NODE + " struct node g[2];", "g->v = 1; return 0;", "2:15"),
    ])
    def test_array_variable_access_is_named_with_its_location(
            self, decl, use, loc):
        """Was a bare ``AssertionError`` out of `_resolve_access`."""
        with pytest.raises(SimplifyError) as refused:
            to_simple(decl + "\nint main() { " + use + " }")
        name = "g" if decl else "a"
        assert str(refused.value).startswith(
            f"<test>:{loc}: {name!r} is declared ")
        assert "array variables are not supported" in str(refused.value)

    @pytest.mark.parametrize("use", [
        "gs.x = n; return 0;",               # was a KeyError traceback
        "return gs.x;",                      # was "not a struct buffer"
        "struct pt *p; p = &gs; p->x = n; return p->x;",
        "struct pt *p; p = (struct pt *) malloc(sizeof(struct pt)); "
        "gs = *p; return 0;",
        "return n;",
    ], ids=["field-write", "field-read", "address", "struct-copy",
            "unused"])
    def test_global_struct_variable_is_named_with_its_location(self, use):
        with pytest.raises(SimplifyError) as refused:
            to_simple("struct pt { int x; int y; };\n"
                      "struct pt gs;\n"
                      "int main(int n) { " + use + " }")
        assert str(refused.value).startswith(
            "<test>:2:1: global 'gs' is declared struct pt; global struct "
            "variables are not supported")


class TestGlobals:
    def test_global_initializer(self):
        assert run_value("int seed = 41; "
                         "int main() { return seed + 1; }") == 42

    def test_global_write_and_read(self):
        assert run_value("""
            int counter;
            int bump() { counter = counter + 1; return counter; }
            int main() { bump(); bump(); return counter; }
        """) == 2

    def test_global_double(self):
        assert run_value("""
            double scale = 2.5;
            int main() { return (int) (scale * 4.0); }
        """) == 10

    def test_address_of_global(self):
        assert run_value("""
            int cell = 7;
            int main() {
                int *p;
                p = &cell;
                return *p;
            }
        """) == 7
