"""Goto/break/continue elimination tests -- checked by *executing* the
transformed programs and comparing against the expected C semantics."""

import pytest

from repro.errors import TransformError
from repro.frontend import ast_nodes as ast
from repro.frontend.goto_elim import eliminate_gotos
from repro.frontend.parser import parse_program
from repro.harness.pipeline import compile_earthc
from tests.conftest import run_value


def surviving_interrupts(source):
    program = parse_program(source)
    eliminate_gotos(program)
    found = []
    for func in program.functions:
        for node in ast.walk(func.body):
            if isinstance(node, (ast.Break, ast.Continue, ast.Goto)):
                found.append(node)
    return found


class TestBreak:
    def test_break_exits_loop(self):
        value = run_value("""
            int main() {
                int i; int t; t = 0;
                for (i = 0; i < 10; i++) {
                    if (i == 4) break;
                    t = t + i;
                }
                return t;
            }
        """)
        assert value == 0 + 1 + 2 + 3

    def test_break_in_while(self):
        value = run_value("""
            int main() {
                int i; i = 0;
                while (1) { i = i + 1; if (i >= 7) break; }
                return i;
            }
        """)
        assert value == 7

    def test_break_skips_rest_of_iteration(self):
        value = run_value("""
            int main() {
                int i; int t; t = 0;
                for (i = 0; i < 5; i++) {
                    if (i == 2) break;
                    t = t + 100;
                }
                return t + i;
            }
        """)
        assert value == 202

    def test_break_in_nested_loop_only_exits_inner(self):
        value = run_value("""
            int main() {
                int i; int j; int t; t = 0;
                for (i = 0; i < 3; i++) {
                    for (j = 0; j < 10; j++) {
                        if (j == 2) break;
                        t = t + 1;
                    }
                }
                return t;
            }
        """)
        assert value == 6

    def test_switch_break_does_not_leave_loop(self):
        value = run_value("""
            int main() {
                int i; int t; t = 0;
                for (i = 0; i < 4; i++) {
                    switch (i) {
                    case 0: t = t + 10; break;
                    case 1: t = t + 20; break;
                    default: t = t + 1; break;
                    }
                }
                return t;
            }
        """)
        assert value == 32

    def test_no_interrupts_survive(self):
        assert surviving_interrupts("""
            int main() {
                int i;
                for (i = 0; i < 10; i++) { if (i == 3) break; }
                return i;
            }
        """) == []


class TestContinue:
    def test_continue_skips_body_tail(self):
        value = run_value("""
            int main() {
                int i; int t; t = 0;
                for (i = 0; i < 6; i++) {
                    if (i % 2 == 0) continue;
                    t = t + i;
                }
                return t;
            }
        """)
        assert value == 1 + 3 + 5

    def test_continue_still_runs_for_step(self):
        # If the step were skipped the loop would never terminate.
        value = run_value("""
            int main() {
                int i; int n; n = 0;
                for (i = 0; i < 5; i++) { continue; }
                return i;
            }
        """)
        assert value == 5

    def test_continue_in_while(self):
        value = run_value("""
            int main() {
                int i; int t; i = 0; t = 0;
                while (i < 6) {
                    i = i + 1;
                    if (i == 3) continue;
                    t = t + i;
                }
                return t;
            }
        """)
        assert value == 1 + 2 + 4 + 5 + 6

    def test_break_and_continue_together(self):
        value = run_value("""
            int main() {
                int i; int t; t = 0;
                for (i = 0; i < 100; i++) {
                    if (i == 8) break;
                    if (i % 3 != 0) continue;
                    t = t + i;
                }
                return t;
            }
        """)
        assert value == 0 + 3 + 6


class TestGoto:
    def test_forward_goto_skips_statements(self):
        value = run_value("""
            int main() {
                int t; t = 1;
                goto done;
                t = 100;
                done: return t;
            }
        """)
        assert value == 1

    def test_conditional_forward_goto(self):
        value = run_value("""
            int main(int x) {
                int t; t = 0;
                if (x > 0) goto skip;
                t = t + 5;
                skip: t = t + 1;
                return t;
            }
        """, args=(1,))
        assert value == 1

    def test_backward_goto_rejected(self):
        program = parse_program("""
            int main() {
                int i; i = 0;
                again: i = i + 1;
                if (i < 3) goto again;
                return i;
            }
        """)
        with pytest.raises(TransformError):
            eliminate_gotos(program)

    def test_goto_without_matching_label_rejected(self):
        program = parse_program(
            "int main() { goto nowhere; return 0; }")
        with pytest.raises(TransformError):
            eliminate_gotos(program)

    def test_break_outside_loop_rejected(self):
        program = parse_program("int main() { break; return 0; }")
        with pytest.raises(TransformError):
            eliminate_gotos(program)

    def test_continue_outside_loop_rejected(self):
        program = parse_program("int main() { continue; return 0; }")
        with pytest.raises(TransformError):
            eliminate_gotos(program)

    def test_forall_with_break_rejected(self):
        program = parse_program("""
            int main() {
                int i;
                forall (i = 0; i < 4; i++) { break; }
                return 0;
            }
        """)
        with pytest.raises(TransformError):
            eliminate_gotos(program)


class TestDoWhile:
    def test_do_while_executes_once(self):
        value = run_value("""
            int main() {
                int i; i = 10;
                do { i = i + 1; } while (i < 5);
                return i;
            }
        """)
        assert value == 11

    def test_do_while_with_break(self):
        value = run_value("""
            int main() {
                int i; i = 0;
                do {
                    i = i + 1;
                    if (i == 3) break;
                } while (i < 100);
                return i;
            }
        """)
        assert value == 3


INTERRUPTS = """
    int main() {
        int i; int t; t = 0;
        for (i = 0; i < 10; i++) {
            if (i == 2) continue;
            if (i == 7) break;
            t = t + i;
        }
        if (t > 100) goto done;
        t = t + 1;
    done:
        return t;
    }
"""


class TestFlagNames:
    """Flags are numbered per program, so a compile's listing is a
    function of its source alone."""

    def test_flags_count_from_one_in_each_program(self):
        program = parse_program(INTERRUPTS)
        eliminate_gotos(program)
        names = [stmt.name for stmt in program.functions[0].body.stmts
                 if isinstance(stmt, ast.VarDecl)
                 and stmt.name.startswith("__")]
        assert names == ["__brk_1", "__cont_2", "__goto_done_3"]

    def test_the_same_program_compiles_to_the_same_listing_twice(self):
        first = compile_earthc(INTERRUPTS).listing()
        assert "int __goto_done_3;" in first
        assert compile_earthc(INTERRUPTS).listing() == first
        assert run_value(INTERRUPTS) == 0 + 1 + 3 + 4 + 5 + 6 + 1
