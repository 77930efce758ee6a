"""Printer and validator tests."""

import pytest

from repro.errors import AnalysisError, TransformError
from repro.frontend.types import INT, FieldPath
from repro.simple import nodes as s
from repro.simple.printer import print_function, print_stmt
from repro.simple.validate import validate_function, validate_program
from tests.conftest import to_simple

NODE = "struct node { int v; struct node *next; };"


class TestPrinter:
    def test_remote_marker(self):
        simple = to_simple(NODE + "int f(struct node *p) { return p->v; }")
        text = print_function(simple.function("f"))
        assert "[R]" in text
        assert "p->v" in text

    def test_labels_shown(self):
        simple = to_simple("int f() { return 1; }")
        text = print_function(simple.function("f"))
        assert "S" in text and "return 1;" in text

    def test_labels_can_be_hidden(self):
        simple = to_simple("int f() { return 1; }")
        text = print_function(simple.function("f"), show_labels=False)
        assert "S" not in text.split("return")[0]

    def test_structured_statements_render(self):
        simple = to_simple("""
            int f(int x) {
                int t; t = 0;
                while (x > 0) { t = t + x; x = x - 1; }
                if (t > 10) t = 10;
                switch (x) { case 0: t = t + 1; break; default: break; }
                do { t = t - 1; } while (t > 0);
                return t;
            }
        """)
        text = print_function(simple.function("f"))
        for token in ("while (", "if (", "switch (", "case 0:",
                      "default:", "do {", "} while ("):
            assert token in text, token

    def test_parallel_constructs_render(self):
        simple = to_simple(NODE + """
            int g() { return 1; }
            int f(struct node *h) {
                int a; int b;
                struct node *p;
                {^ a = g(); b = g(); ^}
                forall (p = h; p != NULL; p = p->next) { a = g(); }
                return a + b;
            }
        """)
        text = print_function(simple.function("f"))
        assert "{^" in text and "^}" in text
        assert "forall" in text

    def test_blkmov_renders_endpoints(self):
        stmt = s.BlkmovStmt(("ptr", "p", 2), ("local", "buf", 0), 4)
        text = print_stmt(stmt)
        assert "blkmov(p+2w, &buf, 4);" in text

    def test_deterministic_output(self):
        src = NODE + "int f(struct node *p) { return p->v + p->v; }"
        a = print_function(to_simple(src).function("f"))
        b = print_function(to_simple(src).function("f"))
        # Labels differ between compilations; strip them.
        strip = lambda t: [line.split(":", 1)[-1] for line in t.splitlines()]
        assert strip(a) == strip(b)


class TestValidator:
    def test_valid_program_counts(self):
        simple = to_simple(NODE + """
            int f(struct node *p) { p->v = 1; return p->v; }
        """)
        stats = validate_program(simple)
        assert stats.remote_reads == 1
        assert stats.remote_writes == 1

    def test_undeclared_variable_detected(self):
        simple = to_simple("int f() { return 1; }")
        func = simple.function("f")
        func.body.stmts.insert(0, s.AssignStmt(
            s.VarLV("ghost"), s.OperandRhs(s.Const(1))))
        with pytest.raises(AnalysisError, match="undeclared"):
            validate_function(simple, func)

    def test_duplicate_label_detected(self):
        simple = to_simple("int f() { return 1; }")
        func = simple.function("f")
        stmt = func.body.stmts[0]
        dup = s.ReturnStmt(s.Const(2))
        dup.label = stmt.label
        func.body.stmts.append(dup)
        with pytest.raises(AnalysisError, match="duplicate label"):
            validate_function(simple, func)

    def test_double_remote_op_detected(self):
        simple = to_simple(NODE + "int f(struct node *p) { return p->v; }")
        func = simple.function("f")
        bad = s.AssignStmt(
            s.FieldWriteLV("p", FieldPath.single("v"), True),
            s.FieldReadRhs("p", FieldPath.single("v"), True))
        func.body.stmts.insert(0, bad)
        with pytest.raises(AnalysisError, match="both"):
            validate_function(simple, func)

    def test_shared_var_direct_access_detected(self):
        simple = to_simple("int f() { shared int c; writeto(&c, 1); "
                           "return 0; }")
        func = simple.function("f")
        bad = s.AssignStmt(s.VarLV("c"), s.OperandRhs(s.Const(5)))
        func.body.stmts.insert(0, bad)
        with pytest.raises(AnalysisError, match="shared"):
            validate_function(simple, func)

    def test_nonpositive_blkmov_detected(self):
        simple = to_simple(NODE + "int f(struct node *p) { return 0; }")
        func = simple.function("f")
        func.declare("buf", simple.structs["node"], "temp")
        func.body.stmts.insert(0, s.BlkmovStmt(
            ("ptr", "p", 0), ("local", "buf", 0), 0))
        with pytest.raises(AnalysisError, match="non-positive"):
            validate_function(simple, func)

    def test_valueof_needs_target(self):
        simple = to_simple("int f() { shared int c; return valueof(&c); }")
        func = simple.function("f")
        bad = s.SharedOpStmt("valueof", "c", None, None)
        func.body.stmts.insert(0, bad)
        with pytest.raises(AnalysisError, match="without a target"):
            validate_function(simple, func)

    def test_split_phase_read_into_a_global_detected(self):
        """A pending value lands in the frame; the engines rely on no
        split-phase read targeting a global."""
        simple = to_simple(NODE + """
            int g;
            int f(struct node *p) { g = p->v; return g; }
        """)
        func = simple.function("f")
        read = func.body.stmts[0]
        read.split_phase = True
        with pytest.raises(TransformError,
                           match=f"f: S{read.label}: split-phase remote "
                                 f"read into 'g'"):
            validate_function(simple, func)
        read.split_phase = False
        assert validate_function(simple, func).remote_reads == 1
