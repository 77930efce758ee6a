"""Compile-time profiling tests: pipeline phases and optimizer passes."""

from repro.harness.pipeline import compile_earthc
from repro.obs.profile import PassProfile, PipelineProfile, timed_pass
from repro.olden.loader import catalog
from repro.service.jobs import compile_payload
from tests.obs.conftest import TRACED_SOURCE


class TestTimedPass:
    def test_records_wall_time_and_appends(self):
        sink = []
        with timed_pass(sink, "work") as profile:
            profile.counters["widgets"] = 3
        assert len(sink) == 1
        assert sink[0] is profile
        assert sink[0].name == "work"
        assert sink[0].wall_s >= 0.0
        assert sink[0].counters == {"widgets": 3}

    def test_appends_even_on_exception(self):
        sink = []
        try:
            with timed_pass(sink, "boom"):
                raise RuntimeError("pass failed")
        except RuntimeError:
            pass
        assert [p.name for p in sink] == ["boom"]

    def test_pass_profile_to_dict(self):
        profile = PassProfile("x", 0.25, {"n": 7})
        assert profile.to_dict() == {"name": "x", "wall_s": 0.25,
                                     "counters": {"n": 7}}


class TestPipelineProfile:
    def test_phase_accumulates(self):
        profile = PipelineProfile()
        with profile.phase("a"):
            pass
        with profile.phase("b") as rec:
            rec.counters["stmts"] = 9
        assert [p.name for p in profile.phases] == ["a", "b"]
        assert profile.total_s >= 0.0
        assert profile.to_dict()["phases"][1]["counters"] == {"stmts": 9}
        text = profile.format_text()
        assert "== compile profile" in text
        assert "stmts=9" in text


class TestCompilePipelineProfiling:
    def test_unoptimized_phases(self):
        compiled = compile_earthc(TRACED_SOURCE)
        names = [p.name for p in compiled.profile.phases]
        assert names == ["parse", "goto-elim", "typecheck", "simplify",
                         "validate"]
        counters = {p.name: p.counters for p in compiled.profile.phases}
        assert counters["parse"]["functions"] == 1
        assert counters["simplify"]["basic_stmts"] > 0

    def test_optimized_adds_optimize_phase_and_passes(self):
        compiled = compile_earthc(TRACED_SOURCE, optimize=True)
        names = [p.name for p in compiled.profile.phases]
        assert names[-1] == "optimize"
        assert compiled.report is not None
        pass_names = [p.name for p in compiled.report.passes]
        assert pass_names == ["locality", "forwarding",
                              "place/select reads",
                              "place/select writes", "split-phase",
                              "validate"]

    def test_optimizer_pass_counters(self):
        compiled = compile_earthc(TRACED_SOURCE, optimize=True)
        counters = compiled.report.pass_counters()
        assert counters["tuples_generated"] > 0
        assert counters["tuples_killed"] >= 0
        assert "pipelined_reads" in counters
        assert "blkmov_merges" in counters

    def test_payload_counters_sum_over_the_passes(self):
        """Both place/select phases count ``tuples_generated`` and
        ``tuples_killed``; the payload reports their sum, as
        ``bench/layers.py`` does."""
        phases = set()
        for spec in catalog():
            compiled = compile_earthc(spec.source(), spec.filename,
                                      optimize=True, inline=spec.inline)
            counters = compile_payload(compiled)["optimizer"][
                "pass_counters"]
            for name in ("tuples_generated", "tuples_killed"):
                assert counters[name] == sum(
                    p.counters.get(name, 0)
                    for p in compiled.report.passes)
            phases |= {p.name for p in compiled.report.passes
                       if p.counters.get("tuples_generated")}
        assert phases == {"place/select reads", "place/select writes"}

    def test_basic_stmt_counters_are_the_programs_sizes(self):
        """Taken from the validation walks, they count what a walk of
        the program as each phase left it counts."""
        spec = next(spec for spec in catalog() if spec.name == "health")

        def size(simple):
            return sum(len(list(f.body.basic_stmts()))
                       for f in simple.functions.values())
        plain = compile_earthc(spec.source(), spec.filename,
                               inline=spec.inline)
        optimized = compile_earthc(spec.source(), spec.filename,
                                   optimize=True, inline=spec.inline)
        counters = {p.name: p.counters for p in optimized.profile.phases}
        assert counters["simplify"]["basic_stmts"] == size(plain.simple)
        assert counters["optimize"]["basic_stmts"] == \
            size(optimized.simple) != size(plain.simple)

    def test_profile_text_combines_phases_and_passes(self):
        compiled = compile_earthc(TRACED_SOURCE, optimize=True)
        text = compiled.profile_text()
        assert "== compile profile" in text
        assert "== optimizer passes" in text
        assert "place/select reads" in text

    def test_report_to_dict_serializable(self):
        import json
        compiled = compile_earthc(TRACED_SOURCE, optimize=True)
        data = compiled.report.to_dict()
        json.dumps(data)
        assert [p["name"] for p in data["passes"]] == \
            [p.name for p in compiled.report.passes]
