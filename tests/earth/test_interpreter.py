"""Interpreter tests: language semantics executed on the machine."""

import pytest

from repro.earth.interpreter import ENGINES, Interpreter
from repro.earth.machine import Machine
from repro.earth.params import MachineParams
from repro.errors import InterpreterError, MemoryFault
from repro.harness.pipeline import compile_earthc, execute
from repro.config import RunConfig
from repro.olden.loader import get_benchmark
from tests.conftest import run_value

NODE = "struct node { int v; struct node *next; };"


class TestArithmetic:
    @pytest.mark.parametrize("expr,expected", [
        ("7 + 3", 10), ("7 - 3", 4), ("7 * 3", 21), ("7 / 3", 2),
        ("7 % 3", 1), ("-7 / 3", -2), ("-7 % 3", -1),
        ("7 / -3", -2), ("1 << 4", 16), ("255 >> 4", 15),
        ("12 & 10", 8), ("12 | 10", 14), ("12 ^ 10", 6),
        ("~0 & 255", 255), ("!5", 0), ("!0", 1),
        ("3 < 4", 1), ("4 < 3", 0), ("4 <= 4", 1), ("5 == 5", 1),
        ("5 != 5", 0),
    ])
    def test_int_expr(self, expr, expected):
        assert run_value(f"int main() {{ return {expr}; }}") == expected

    def test_double_arithmetic(self):
        assert run_value(
            "int main() { double d; d = 7.0 / 2.0; "
            "return (int) (d * 10.0); }") == 35

    def test_sqrt_builtin(self):
        assert run_value(
            "int main() { return (int) sqrt(144.0); }") == 12

    def test_fabs_builtin(self):
        assert run_value(
            "int main() { return (int) fabs(-3.5 * 2.0); }") == 7

    def test_division_by_zero_raises(self):
        compiled = compile_earthc("int main() { int z; z = 0; "
                                  "return 5 / z; }")
        with pytest.raises(InterpreterError, match="division"):
            execute(compiled)

    def test_int_store_truncates(self):
        assert run_value("int main() { int x; x = 3.99; return x; }") == 3

    def test_char_wraps(self):
        assert run_value("int main() { char c; c = 300; return c; }") \
            == 300 % 256


class TestControlFlow:
    def test_recursion(self):
        assert run_value("""
            int fib(int n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(10); }
        """) == 55

    def test_mutual_recursion(self):
        assert run_value("""
            int is_even(int n);
            int is_odd(int n) { if (n == 0) return 0;
                                return is_even(n - 1); }
            int is_even(int n) { if (n == 0) return 1;
                                 return is_odd(n - 1); }
            int main() { return is_even(10) * 10 + is_odd(7); }
        """) == 11

    def test_switch_dispatch(self):
        source = """
            int classify(int x) {
                switch (x) {
                case 1: return 10;
                case 2: return 20;
                default: return -1;
                }
            }
            int main(int x) { return classify(x); }
        """
        assert run_value(source, args=(1,)) == 10
        assert run_value(source, args=(2,)) == 20
        assert run_value(source, args=(9,)) == -1

    def test_missing_return_yields_zero(self):
        assert run_value("int main() { int x; x = 5; }") == 0

    def test_main_arguments(self):
        assert run_value("int main(int a, int b) { return a * b; }",
                         args=(6, 7)) == 42


class TestHeap:
    def test_linked_list_roundtrip(self):
        assert run_value(NODE + """
            int main() {
                struct node *head; struct node *p;
                int i; int total;
                head = NULL;
                for (i = 1; i <= 5; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->v = i;
                    p->next = head;
                    head = p;
                }
                total = 0;
                p = head;
                while (p != NULL) { total = total + p->v; p = p->next; }
                return total;
            }
        """) == 15

    def test_double_fields_preserved_through_blkmov(self):
        assert run_value("""
            struct pt { double x; int tag; double y; };
            int main() {
                struct pt *p;
                struct pt buf;
                p = (struct pt *) malloc(sizeof(struct pt)) @ 0;
                p->x = 1.25; p->tag = 7; p->y = -2.5;
                buf = *p;
                return (int) (buf.x * 4.0) + buf.tag
                     + (int) (buf.y * 2.0);
            }
        """, num_nodes=1) == 5 + 7 - 5

    def test_nil_write_faults(self):
        compiled = compile_earthc(NODE + """
            int main() {
                struct node *p; p = NULL;
                p->v = 1;
                return 0;
            }
        """)
        with pytest.raises(MemoryFault):
            execute(compiled)

    def test_nil_local_read_faults(self):
        # With locality analysis p (only ever NULL) compiles to a local
        # access, which faults on nil instead of speculating.
        compiled = compile_earthc(NODE + """
            int main() {
                struct node *p; p = NULL;
                return p->v;
            }
        """, optimize=True)
        with pytest.raises(MemoryFault):
            execute(compiled)

    def test_speculative_remote_nil_read_returns_zero(self):
        # A remote-marked read through nil is the paper's speculative
        # case: delivered as 0 and counted.
        source = NODE + """
            int probe(struct node *p) {
                int v;
                v = p->v;
                if (p == NULL) return 7;
                return v;
            }
            int main() { return probe(NULL); }
        """
        compiled = compile_earthc(source)
        result = execute(compiled, config=RunConfig(nodes=2))
        assert result.value == 7
        assert result.stats.speculative_nil_reads == 1

    def test_strict_mode_faults_on_nil_remote_read(self):
        source = NODE + """
            int probe(struct node *p) { return p->v; }
            int main() { return probe(NULL); }
        """
        compiled = compile_earthc(source)
        with pytest.raises(MemoryFault):
            execute(compiled, config=RunConfig(nodes=2, strict_nil_reads=True))

    def test_malloc_placement(self):
        source = NODE + """
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node)) @ 1;
                return owner_of(p);
            }
        """
        assert run_value(source, num_nodes=2) == 1


class TestParallelism:
    def test_parseq_results_visible_after_join(self):
        assert run_value("""
            int work(int x) { return x * x; }
            int main() {
                int a; int b;
                {^ a = work(5); b = work(6); ^}
                return a + b;
            }
        """) == 61

    def test_parseq_remote_calls(self):
        source = NODE + """
            int read_v(struct node local *p) { return p->v; }
            int main() {
                struct node *x; struct node *y;
                int a; int b;
                x = (struct node *) malloc(sizeof(struct node)) @ 0;
                y = (struct node *) malloc(sizeof(struct node)) @ 1;
                x->v = 30; y->v = 12;
                {^
                    a = read_v(x) @ OWNER_OF(x);
                    b = read_v(y) @ OWNER_OF(y);
                ^}
                return a + b;
            }
        """
        compiled = compile_earthc(source)
        result = execute(compiled, config=RunConfig(nodes=2))
        assert result.value == 42
        assert result.stats.remote_calls >= 1

    def test_forall_with_shared_accumulator(self):
        assert run_value(NODE + """
            int main() {
                struct node *head; struct node *p;
                int i;
                shared int total;
                head = NULL;
                for (i = 1; i <= 6; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->v = i;
                    p->next = head;
                    head = p;
                }
                writeto(&total, 0);
                forall (p = head; p != NULL; p = p->next) {
                    addto(&total, p->v);
                }
                return valueof(&total);
            }
        """) == 21

    def test_forall_iterations_have_private_frames(self):
        # Each iteration writes the same temp; without privatization the
        # shared sum would be corrupted.
        assert run_value(NODE + """
            int main() {
                struct node *head; struct node *p;
                int i;
                shared int total;
                head = NULL;
                for (i = 1; i <= 4; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->v = i;
                    p->next = head;
                    head = p;
                }
                writeto(&total, 0);
                forall (p = head; p != NULL; p = p->next) {
                    int double_v;
                    double_v = p->v * 2;
                    addto(&total, double_v);
                }
                return valueof(&total);
            }
        """, num_nodes=2) == 20

    def test_shared_counter_across_migrated_calls(self):
        source = NODE + """
            shared int hits;
            int touch(struct node local *p) {
                addto(&hits, p->v);
                return 0;
            }
            int main() {
                struct node *a; struct node *b;
                a = (struct node *) malloc(sizeof(struct node)) @ 0;
                b = (struct node *) malloc(sizeof(struct node)) @ 1;
                a->v = 2; b->v = 3;
                writeto(&hits, 1);
                {^
                    touch(a) @ OWNER_OF(a);
                    touch(b) @ OWNER_OF(b);
                ^}
                return valueof(&hits);
            }
        """
        assert run_value(source, num_nodes=2) == 6

    def test_timing_parallel_faster_than_serial(self):
        source = """
            int spin(int n) {
                int i; int t; t = 0;
                for (i = 0; i < n; i++) t = t + i;
                return t;
            }
            int main() {
                int a; int b;
                {^
                    a = spin(200) @ 0;
                    b = spin(200) @ 1;
                ^}
                return a + b;
            }
        """
        compiled2 = compile_earthc(source)
        two = execute(compiled2, config=RunConfig(nodes=2))
        compiled1 = compile_earthc(source)
        one = execute(compiled1, config=RunConfig(nodes=1))
        assert two.value == one.value
        assert two.time_ns < one.time_ns


class TestRuntimeChecks:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_statement_budget(self, engine):
        compiled = compile_earthc(
            "int main() { int i; i = 0; while (1) { i = i + 1; } "
            "return i; }")
        machine = Machine(1)
        interp = Interpreter(compiled.simple, machine, max_stmts=1000,
                             engine=engine)
        with pytest.raises(InterpreterError, match="budget"):
            interp.run("main")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ["treeadd", "health"])
    def test_budget_boundary_is_the_statement_count(self, name, engine):
        """``basic_stmts_executed`` is the budget: a run that executes
        ``n`` basic statements raises under ``max_stmts = n`` and
        completes, with the same stats, under ``n + 1`` -- wherever
        the engine charges the counter."""
        spec = get_benchmark(name)
        compiled = compile_earthc(spec.source(), spec.filename,
                                  optimize=True, inline=spec.inline)
        config = RunConfig(nodes=4, args=tuple(spec.small_args),
                           engine=engine)
        free = execute(compiled, config=config)
        n = free.stats.basic_stmts_executed
        assert n > 1000
        with pytest.raises(InterpreterError, match="budget"):
            execute(compiled, config=config.replace(max_stmts=n))
        tight = execute(compiled, config=config.replace(max_stmts=n + 1))
        assert tight.value == free.value
        assert tight.time_ns == free.time_ns
        assert tight.stats.snapshot() == free.stats.snapshot()

    def test_unknown_entry(self):
        compiled = compile_earthc("int main() { return 0; }")
        machine = Machine(1)
        with pytest.raises(InterpreterError, match="nosuch"):
            Interpreter(compiled.simple, machine).run("nosuch")

    def test_printf_output_captured(self):
        compiled = compile_earthc(
            'int main() { printf("x=%d y=%d", 1, 2); return 0; }')
        result = execute(compiled)
        assert result.output == ["x=1 y=2"]

    def test_locality_check_catches_bad_local_declaration(self):
        # The programmer wrongly declares a remote pointer `local`.
        source = NODE + """
            int reader(struct node local *p) { return p->v; }
            int main() {
                struct node *x;
                x = (struct node *) malloc(sizeof(struct node)) @ 1;
                x->v = 3;
                return reader(x);
            }
        """
        compiled = compile_earthc(source)
        with pytest.raises(InterpreterError, match="local"):
            execute(compiled, config=RunConfig(nodes=2))

    def test_builtin_topology_queries(self):
        source = "int main() { return num_nodes() * 100 + my_node(); }"
        assert run_value(source, num_nodes=8) == 800
