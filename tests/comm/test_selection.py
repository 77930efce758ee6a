"""Communication selection tests: the transformations of the paper's
Figures 3, 4 and 8 plus the pipelining/blocking machinery."""

import pytest

from repro.comm import selection
from repro.comm.optimizer import CommConfig, optimize_program
from repro.config import RunConfig
from repro.harness.pipeline import compile_earthc, execute
from repro.simple import nodes as s
from repro.simple.validate import validate_program
from tests.conftest import run_both, to_simple

POINT = "struct point { double x; double y; };"
POINT3 = "struct point { double x; double y; struct point *next; };"


def optimized(source, **config_kwargs):
    simple = to_simple(source)
    report = optimize_program(simple, CommConfig(**config_kwargs))
    validate_program(simple)
    return simple, report


def remote_reads(func):
    return [st for st in func.body.basic_stmts()
            if isinstance(st, s.AssignStmt) and st.remote_read()]


def blkmovs(func):
    return [st for st in func.body.basic_stmts()
            if isinstance(st, s.BlkmovStmt)]


class TestFigure3Distance:
    SOURCE = POINT + """
        double distance(struct point *p) {
            return sqrt(p->x * p->x + p->y * p->y);
        }
    """

    def test_redundant_reads_merged_to_two(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("distance")
        # Four syntactic reads -> two comm reads (Fig 3c).
        assert len(remote_reads(func)) == 2

    def test_two_accesses_pipelined_not_blocked(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("distance")
        assert not blkmovs(func)

    def test_comm_reads_are_split_phase(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("distance")
        assert all(st.split_phase for st in remote_reads(func))

    def test_reads_hoisted_to_entry(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("distance")
        first_two = func.body.stmts[:2]
        assert all(isinstance(st, s.AssignStmt) and st.remote_read()
                   for st in first_two)


class TestFigure4ScalePoint:
    SOURCE = POINT + """
        double scale(double v, double k) { return v * k; }
        int scale_point(struct point *p, double k) {
            p->x = scale(p->x, k);
            p->y = scale(p->y, k);
            return 0;
        }
    """

    def test_reads_hoisted_above_writes(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("scale_point")
        kinds = []
        for stmt in func.body.basic_stmts():
            if isinstance(stmt, s.AssignStmt):
                if stmt.remote_read():
                    kinds.append("r")
                elif stmt.remote_write():
                    kinds.append("w")
        # Fig 4(c): both reads before both writes.
        assert kinds == ["r", "r", "w", "w"]

    def test_writes_are_split_phase(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("scale_point")
        writes = [st for st in func.body.basic_stmts()
                  if isinstance(st, s.AssignStmt) and st.remote_write()]
        assert len(writes) == 2
        assert all(st.split_phase for st in writes)

    def test_semantics_preserved(self):
        source = self.SOURCE + """
            int main() {
                struct point *p;
                p = (struct point *) malloc(sizeof(struct point)) @ 1;
                p->x = 3.0; p->y = 4.0;
                scale_point(p, 2.0);
                return (int) (p->x + p->y);
            }
        """
        run_both(source, num_nodes=2)


class TestFigure8Blocking:
    SOURCE = POINT3 + """
        double walk(struct point *head, struct point *t) {
            struct point *p;
            double acc; double bx; double by;
            acc = 0.0;
            p = head;
            while (p != NULL) {
                bx = t->x;
                by = t->y;
                acc = acc + p->x + p->y + bx + by;
                p = p->next;
            }
            return acc;
        }
    """

    def test_three_accesses_blocked(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("walk")
        moves = blkmovs(func)
        assert len(moves) == 1
        assert moves[0].src[1] == "p"
        assert moves[0].words == simple.structs["point"].size_words()

    def test_blkmov_placed_in_loop_body(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("walk")
        loop = next(st for st in func.body.walk()
                    if isinstance(st, s.WhileStmt))
        assert isinstance(loop.body.stmts[0], s.BlkmovStmt)

    def test_t_reads_hoisted_out_of_loop(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("walk")
        loop = next(st for st in func.body.walk()
                    if isinstance(st, s.WhileStmt))
        t_reads_in_loop = [st for st in loop.body.basic_stmts()
                           if isinstance(st, s.AssignStmt)
                           and st.remote_read()
                           and st.remote_read().base == "t"]
        assert not t_reads_in_loop

    def test_accesses_redirected_to_bcomm(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("walk")
        loop = next(st for st in func.body.walk()
                    if isinstance(st, s.WhileStmt))
        bcomm_reads = [st for st in loop.body.basic_stmts()
                       if isinstance(st, s.AssignStmt)
                       and isinstance(st.rhs, s.StructFieldReadRhs)]
        assert len(bcomm_reads) >= 3

    def test_blocking_disabled_pipelines_instead(self):
        simple, report = optimized(self.SOURCE, enable_blocking=False)
        func = simple.function("walk")
        assert not blkmovs(func)
        loop = next(st for st in func.body.walk()
                    if isinstance(st, s.WhileStmt))
        p_reads = [st for st in loop.body.basic_stmts()
                   if isinstance(st, s.AssignStmt) and st.remote_read()]
        assert len(p_reads) == 3


class TestWholeStructRule:
    """A block move copies the whole struct or nothing.  The three
    fields read are declared first, but the struct is five times their
    size, so the spurious-field rule forbids blocking and they are
    pipelined -- no shorter block move of the leading fields."""

    SOURCE = """
        struct big { int hot_a; int hot_b; int hot_c;
                     double cold1; double cold2; double cold3;
                     double cold4; double cold5; double cold6; };
        int reader(struct big *p) {
            int t; int i;
            t = 0;
            for (i = 0; i < 10; i++) {
                t = t + p->hot_a + p->hot_b + p->hot_c;
            }
            return t;
        }
        int main() {
            struct big *p;
            p = (struct big *) malloc(sizeof(struct big)) @ 1;
            p->hot_a = 1; p->hot_b = 2; p->hot_c = 3;
            p->cold1 = 9.0;
            return reader(p);
        }
    """

    def test_leading_fields_are_pipelined(self):
        compiled = compile_earthc(self.SOURCE, optimize=True)
        func = compiled.simple.function("reader")
        assert not blkmovs(func)
        counters = compiled.report.counters("reader")
        assert counters["blocked_read_groups"] == 0
        assert counters["pipelined_reads"] == 3
        assert all(st.split_phase for st in remote_reads(func))

    def test_both_engines_compute_the_value(self):
        compiled = compile_earthc(self.SOURCE, optimize=True)
        values = {engine: execute(compiled, config=RunConfig(
                      nodes=2, engine=engine)).value
                  for engine in ("codegen", "ast")}
        assert values == {"codegen": 60, "ast": 60}


class TestBlockedWrites:
    # The paper's power pattern (Fig 11a): read fields, compute, write
    # fields -> blkmov in, local accesses, blkmov out.
    SOURCE = """
        struct branch { double a; double b; double r; double x; };
        int update(struct branch *br, double k) {
            double t1; double t2; double t3; double t4;
            t1 = br->r;
            t2 = br->x;
            t3 = br->a;
            t4 = br->b;
            br->a = t1 * k + t3;
            br->b = t2 * k + t4;
            br->x = t1 + t2;
            return 0;
        }
    """

    def test_localization_region(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("update")
        moves = blkmovs(func)
        assert len(moves) == 2
        blk_in, blk_out = moves
        assert blk_in.src[0] == "ptr" and blk_in.dst[0] == "local"
        assert blk_out.src[0] == "local" and blk_out.dst[0] == "ptr"

    def test_no_scalar_remote_ops_remain(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("update")
        scalars = [st for st in func.body.basic_stmts()
                   if isinstance(st, s.AssignStmt) and st.is_remote]
        assert not scalars

    def test_field_accesses_use_buffer(self):
        simple, report = optimized(self.SOURCE)
        func = simple.function("update")
        buffer_writes = [st for st in func.body.basic_stmts()
                         if isinstance(st, s.AssignStmt)
                         and isinstance(st.lhs, s.StructFieldWriteLV)]
        assert len(buffer_writes) == 3

    def test_semantics_preserved(self):
        source = self.SOURCE + """
            int main() {
                struct branch *br;
                br = (struct branch *) malloc(sizeof(struct branch)) @ 1;
                br->r = 2.0; br->x = 3.0;
                br->a = 1.0; br->b = 1.0;
                update(br, 10.0);
                return (int) (br->a + br->b + br->x);
            }
        """
        r1, r2 = run_both(source, num_nodes=2)
        assert r1.value == 52 + 5


class TestSelectionDiscipline:
    NODE = "struct node { int v; int w; struct node *next; };"

    def test_hash_table_prevents_duplicate_selection(self):
        simple, report = optimized(self.NODE + """
            int f(struct node *p, int c) {
                int a; int b;
                a = p->v;
                if (c) { b = p->v; }
                else { b = 0; }
                return a + b;
            }
        """)
        func = simple.function("f")
        reads = remote_reads(func)
        assert len(reads) == 1  # one comm read serves both origins

    def test_low_frequency_tuple_selected_inside_conditional(self):
        simple, report = optimized(self.NODE + """
            int f(struct node *p, struct node *q, int c) {
                int t; t = 0;
                if (c) { t = q->v; }
                return t;
            }
        """)
        func = simple.function("f")
        if_stmt = next(st for st in func.body.walk()
                       if isinstance(st, s.IfStmt))
        in_then = [st for st in if_stmt.then_seq.basic_stmts()
                   if isinstance(st, s.AssignStmt) and st.remote_read()]
        assert in_then, "the 0.5-frequency read stays inside the arm"

    def test_unmovable_read_left_in_place_split_phase(self):
        simple, report = optimized(self.NODE + """
            int f(struct node *p) {
                struct node *q;
                q = p->next;
                return q->v;
            }
        """)
        func = simple.function("f")
        reads = remote_reads(func)
        assert all(st.split_phase for st in reads)

    def test_stats_recorded(self):
        simple, report = optimized(POINT + """
            double distance(struct point *p) {
                return sqrt(p->x * p->x + p->y * p->y);
            }
        """)
        # Forwarding removed the two duplicate reads; the x read sits at
        # the function entry already (left in place, made split-phase)
        # and the y read is hoisted next to it.
        rules = [record.rule for record in report.log
                 if record.function == "distance"]
        assert rules.count("forward-load") == 2
        assert rules.count("pipeline-read") \
            + rules.count("in-place-read") == 2

    def test_validates_after_transformation(self):
        # validate_program is run by the optimizer; reaching here means
        # the transformed tree is well-formed for a tricky input.
        optimized(self.NODE + """
            int f(struct node *p, struct node *q, int c) {
                int t; t = 0;
                while (c > 0) {
                    switch (c % 3) {
                    case 0: t = t + p->v; break;
                    case 1: t = t + q->w; break;
                    default: p->w = t; break;
                    }
                    c = c - 1;
                }
                return t;
            }
        """)


class TestNonSpeculativeReads:
    """``speculative_reads=False`` (paper footnote 2's nilness option):
    a read may only be placed where its base pointer is known non-nil.
    The nilness analysis runs for that configuration alone."""

    SOURCE = POINT + """
        double guarded(struct point *p) {
            int i; double r;
            r = 0.0;
            if (p != 0) {
                for (i = 0; i < 10; i = i + 1) { r = r + p->x; }
            }
            return r;
        }
    """

    @staticmethod
    def _guard_and_read(func):
        """(the ``if (p != 0)``, the one remote read of ``p->x``)."""
        [guard] = [st for st in func.body.walk()
                   if isinstance(st, s.IfStmt)]
        [read] = remote_reads(func)
        return guard, read

    def test_speculative_read_is_hoisted_above_the_nil_test(self):
        simple, _ = optimized(self.SOURCE)
        func = simple.function("guarded")
        guard, read = self._guard_and_read(func)
        top = func.body.stmts
        assert top.index(read) < top.index(guard)

    def test_read_stays_under_the_nil_test_that_guards_it(self):
        simple, _ = optimized(self.SOURCE, speculative_reads=False)
        func = simple.function("guarded")
        guard, read = self._guard_and_read(func)
        assert read not in func.body.stmts
        # Hoisted out of the loop, as far as the guard and no further.
        assert read is guard.then_seq.stmts[0]

    def test_both_settings_compute_the_same_value(self):
        main = self.SOURCE + """
            int main() {
                struct point *p;
                p = (struct point *) malloc(sizeof(struct point)) @ 1;
                p->x = 1.5;
                return (int) (guarded(p) + guarded(0));
            }
        """
        values = {
            speculative: execute(
                compile_earthc(main, optimize=True, config=CommConfig(
                    speculative_reads=speculative)),
                config=RunConfig(nodes=2)).value
            for speculative in (True, False)}
        assert values == {True: 15, False: 15}

    def test_nilness_runs_only_when_reads_are_not_speculative(
            self, monkeypatch):
        calls = []
        analyze = selection.analyze_nilness
        monkeypatch.setattr(
            selection, "analyze_nilness",
            lambda func: calls.append(func.name) or analyze(func))
        optimized(self.SOURCE)
        assert calls == []
        optimized(self.SOURCE, speculative_reads=False)
        assert "guarded" in calls
