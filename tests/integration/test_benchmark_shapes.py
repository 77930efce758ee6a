"""Structural assertions on the optimized benchmark code: the shapes the
paper shows in its Figure 11 excerpts must appear in our compiled output."""

import pytest

from repro.harness.pipeline import compile_earthc
from repro.olden.loader import get_benchmark
from repro.simple import nodes as s


def compiled(name):
    spec = get_benchmark(name)
    return compile_earthc(spec.source(), name, optimize=True,
                          inline=spec.inline)


def blkmovs(func):
    return [st for st in func.body.basic_stmts()
            if isinstance(st, s.BlkmovStmt)]


class TestPowerFig11a:
    def test_compute_branch_fully_localized(self):
        c = compiled("power")
        func = c.simple.functions["compute_branch"]
        moves = blkmovs(func)
        # blkmov in at the top, blkmov out at the bottom, over the whole
        # branch struct (Fig 11a's Compute_Branch).
        assert len(moves) == 2
        blk_in, blk_out = moves
        words = c.simple.structs["branch"].size_words()
        assert blk_in.src[0] == "ptr" and blk_in.src[1] == "br"
        assert blk_in.words == words
        assert blk_out.dst[0] == "ptr" and blk_out.dst[1] == "br"

    def test_no_scalar_br_accesses_remain(self):
        c = compiled("power")
        func = c.simple.functions["compute_branch"]
        for stmt in func.body.basic_stmts():
            if isinstance(stmt, s.AssignStmt):
                for access in (stmt.remote_read(), stmt.remote_write()):
                    assert access is None or access.base != "br"

    def test_selection_report_shows_blocked_writes(self):
        c = compiled("power")
        counters = c.report.counters("compute_branch")
        assert counters["blocked_read_groups"] >= 1
        assert counters["blocked_write_groups"] >= 1


class TestPerimeterFig11b:
    def test_sum_adjacent_blocked(self):
        c = compiled("perimeter")
        func = c.simple.functions["sum_adjacent"]
        moves = blkmovs(func)
        assert len(moves) == 1
        assert moves[0].src[1] == "p"
        assert moves[0].words == c.simple.structs["quad"].size_words()

    def test_switch_arms_read_from_buffer(self):
        c = compiled("perimeter")
        func = c.simple.functions["sum_adjacent"]
        buffer_reads = [st for st in func.body.basic_stmts()
                        if isinstance(st, s.AssignStmt)
                        and isinstance(st.rhs, s.StructFieldReadRhs)]
        fields = {str(st.rhs.path) for st in buffer_reads}
        # color plus the four quadrant pointers, as in Fig 11(b).
        assert "color" in fields
        assert {"nw", "ne", "sw", "se"} <= fields

    def test_inlining_happened(self):
        c = compiled("perimeter")
        assert c.inlined_calls >= 5


class TestHealthFig11c:
    def test_loop_invariant_hoisted_out_of_patient_loop(self):
        c = compiled("health")
        func = c.simple.functions["check_patients_inside"]
        loop = next(st for st in func.body.walk()
                    if isinstance(st, s.WhileStmt))
        # No village accesses left inside the loop: free_personnel etc.
        # were read before and written after (Fig 11c).
        for stmt in loop.body.basic_stmts():
            if isinstance(stmt, s.AssignStmt):
                for access in (stmt.remote_read(), stmt.remote_write()):
                    assert access is None or access.base != "village"

    def test_time_left_store_to_load_forwarded(self):
        c = compiled("health")
        counters = c.report.counters("check_patients_inside")
        assert counters["reads_forwarded"] + counters["stores_forwarded"] \
            >= 1


class TestTspRedundancy:
    def test_distance_inlined(self):
        c = compiled("tsp")
        assert c.inlined_calls >= 1
        assert "distance_pts" not in {
            st.func for fn in c.simple.functions.values()
            for st in fn.body.basic_stmts()
            if isinstance(st, s.CallStmt)
        }

    def test_merge_loop_blocks_candidates(self):
        c = compiled("tsp")
        func = c.simple.functions["merge_tours"]
        assert blkmovs(func), "coordinate reads should be blocked"

    def test_redundant_coordinate_reads_removed(self):
        c = compiled("tsp")
        counters = c.report.counters("merge_tours")
        assert counters["reads_forwarded"] + counters["stores_forwarded"] \
            + counters["redundant_reads_merged"] >= 2


class TestVoronoiBlocking:
    def test_merge_walk_blocks_both_frontiers(self):
        c = compiled("voronoi")
        func = c.simple.functions["merge_frontiers"]
        moves = blkmovs(func)
        bases = {move.src[1] for move in moves}
        assert {"a", "b"} <= bases
