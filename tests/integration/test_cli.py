"""CLI driver tests (python -m repro)."""

import pytest

from repro.__main__ import main

SOURCE = """
struct point { double x; double y; };

double distance(struct point *p) {
    return sqrt(p->x * p->x + p->y * p->y);
}

int main(int scale) {
    struct point *p;
    p = (struct point *) malloc(sizeof(struct point)) @ 1;
    p->x = 3.0 * scale;
    p->y = 4.0 * scale;
    printf("hello=%d", scale);
    return (int) distance(p);
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.ec"
    path.write_text(SOURCE)
    return str(path)


class TestShow:
    def test_show_simple(self, source_file, capsys):
        assert main([source_file, "--show", "simple"]) == 0
        out = capsys.readouterr().out
        assert "p->x" in out and "[R]" in out

    def test_show_simple_optimized(self, source_file, capsys):
        assert main([source_file, "-O", "--show", "simple",
                     "--function", "distance"]) == 0
        out = capsys.readouterr().out
        assert "comm1" in out
        assert "main(" not in out  # restricted to one function

    def test_show_threaded(self, source_file, capsys):
        assert main([source_file, "-O", "--show", "threaded"]) == 0
        out = capsys.readouterr().out
        assert "THREADED distance" in out
        assert "GET_SYNC(" in out

    def test_show_tuples(self, source_file, capsys):
        assert main([source_file, "--show", "tuples",
                     "--function", "distance"]) == 0
        out = capsys.readouterr().out
        assert "RR={" in out and "p->x" in out

    def test_show_stats(self, source_file, capsys):
        assert main([source_file, "-O", "--show", "stats"]) == 0
        out = capsys.readouterr().out
        assert "optimization report" in out
        assert "distance" in out

    def test_unknown_show_item(self, source_file, capsys):
        assert main([source_file, "--show", "rainbows"]) == 2

    def test_show_stats_prints_one_functions_records(self, source_file,
                                                     capsys):
        assert main([source_file, "-O", "--show", "stats",
                     "--function", "distance"]) == 0
        records = capsys.readouterr().out.splitlines()[1:-1]
        assert [line.split()[:2] for line in records] == [
            ["distance", "forward-load"], ["distance", "forward-load"],
            ["distance", "in-place-read"], ["distance", "pipeline-read"]]
        assert records[-1].split()[-3:-1] == ["S5", "->"]

    def test_unknown_function(self, source_file, capsys):
        assert main([source_file, "--show", "simple",
                     "--function", "nope"]) == 1

    @pytest.mark.parametrize("show", ["", "stats", "profile", "threaded"])
    def test_unknown_function_is_refused_whatever_is_shown(
            self, source_file, capsys, show):
        assert main([source_file, "-O", "--show", show,
                     "--function", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no function named 'nope'" in captured.err


class TestRun:
    def test_run_with_args(self, source_file, capsys):
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "2"]) == 0
        out = capsys.readouterr().out
        assert "hello=2" in out
        assert "result  = 10" in out
        assert "remote" in out

    def test_run_unoptimized_same_result(self, source_file, capsys):
        assert main([source_file, "--run", "--nodes", "2",
                     "--args", "1"]) == 0
        out = capsys.readouterr().out
        assert "result  = 5" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/prog.ec"]) == 5  # EXIT_IO

    @pytest.mark.parametrize("engine", ["codegen", "ast"])
    def test_read_into_a_global_same_result_with_and_without_O(
            self, engine, tmp_path, capsys):
        """``-O`` used to print ``result  = 0`` here: the read of
        ``p->val`` into global ``g`` went split-phase."""
        from tests.comm.test_global_pointers import READ_INTO_GLOBAL
        path = tmp_path / "t.ec"
        path.write_text(READ_INTO_GLOBAL)
        for flags in ([], ["-O"]):
            assert main([str(path), *flags, "--run", "--nodes", "2",
                         "--args", "5", "--engine", engine]) == 0
            assert "result  = 5\n" in capsys.readouterr().out, flags

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.ec"
        bad.write_text("int main() { return undeclared_var; }")
        assert main([str(bad), "--run"]) == 3  # EXIT_COMPILE
        assert "error:" in capsys.readouterr().err


class TestObservability:
    def test_show_profile(self, source_file, capsys):
        assert main([source_file, "-O", "--show", "profile"]) == 0
        out = capsys.readouterr().out
        assert "== compile profile" in out
        assert "parse" in out and "optimize" in out
        assert "== optimizer passes" in out
        assert "place/select reads" in out

    def test_trace_writes_chrome_json(self, source_file, tmp_path,
                                      capsys):
        import json
        trace = tmp_path / "trace.json"
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "1", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== trace metrics" in out
        assert f"trace   = {trace}" in out
        document = json.loads(trace.read_text())
        assert document["traceEvents"]
        thread_names = {(e["pid"], e["tid"]): e["args"]["name"]
                        for e in document["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert thread_names[(0, 0)] == "EU"
        assert thread_names[(1, 1)] == "SU"

    def test_trace_capacity_bounds_events(self, source_file, tmp_path,
                                          capsys):
        import json
        trace = tmp_path / "trace.json"
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "1", "--trace", str(trace),
                     "--trace-capacity", "5"]) == 0
        document = json.loads(trace.read_text())
        assert document["otherData"]["recorded_events"] == 5
        assert document["otherData"]["dropped_events"] > 0

    def test_json_output(self, source_file, capsys):
        import json
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == 10
        assert payload["nodes"] == 2
        assert payload["optimized"] is True
        assert payload["output"] == ["hello=2"]
        assert payload["stats"]["remote_reads"] >= 0
        assert len(payload["utilization"]["eu_utilization"]) == 2
        assert payload["compile_profile"]["phases"]
        assert "optimizer" in payload

    def test_json_with_trace_embeds_metrics(self, source_file,
                                            tmp_path, capsys):
        import json
        trace = tmp_path / "trace.json"
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "1", "--json",
                     "--trace", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_file"] == str(trace)
        assert payload["trace"]["events"] > 0
        assert "critical_path" in payload["trace"]

    def test_trace_requires_run(self, source_file, tmp_path, capsys):
        assert main([source_file, "--trace",
                     str(tmp_path / "t.json")]) == 2
        assert "--trace/--json require --run" in \
            capsys.readouterr().err

    def test_json_requires_run(self, source_file, capsys):
        assert main([source_file, "--json"]) == 2

    def test_non_positive_trace_capacity_rejected(self, source_file,
                                                  tmp_path, capsys):
        assert main([source_file, "--run", "--args", "1",
                     "--trace", str(tmp_path / "t.json"),
                     "--trace-capacity", "0"]) == 2
        assert "trace_capacity" in capsys.readouterr().err

    def test_unwritable_trace_destination_reported(self, source_file,
                                                   tmp_path, capsys):
        assert main([source_file, "--run", "--args", "1",
                     "--trace", str(tmp_path / "no/such/dir/t.json")
                     ]) == 5  # EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_dump_codegen_prints_the_code_the_run_executes(
            self, source_file, tmp_path, capsys):
        # The dump bakes in this invocation's budget and tracer, not a
        # default machine's.
        assert main([source_file, "-O", "--dump-codegen", "distance",
                     "--max-stmts", "5000", "--run", "--nodes", "2",
                     "--args", "1", "--trace",
                     str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "== codegen source: distance (nodes=2)" in out
        assert ">= 5000:" in out and ">= 200000000" not in out
        assert "_tracer.current_site = ('distance', " in out
        assert "result  = 5" in out

    def test_dump_codegen_emits_non_finite_constants(self, tmp_path,
                                                     capsys):
        """``repr(inf)`` is not Python: such a function used to leave
        the dump to say it fell back to the walker."""
        path = tmp_path / "inf.ec"
        path.write_text("int main() { double a; a = 1e400 - 1e400;\n"
                        "if (a != a) return -1e400 < 0.0; return 0; }")
        assert main([str(path), "--dump-codegen", "main", "--run"]) == 0
        out = capsys.readouterr().out
        assert "== codegen source: main (nodes=1)" in out
        assert "float('inf')" in out and "float('-inf')" in out
        assert "result  = 1\n" in out

    def test_olden_benchmark_defaults_args(self, capsys):
        import os
        import repro.olden as olden
        path = os.path.join(os.path.dirname(olden.__file__), "power.ec")
        assert main([path, "-O", "--run", "--nodes", "2"]) == 0
        captured = capsys.readouterr()
        assert "using power catalog size 16,4,4,3" in captured.err
        assert "result  =" in captured.out


class TestFaultFlags:
    def test_faulty_run_reports_fault_summary(self, source_file, capsys):
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "2", "--faults", "3",
                     "--fault-drop", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "faults  = seed 3:" in out
        assert "result  = 10" in out  # same value as the clean run

    def test_fault_profile_accepted(self, source_file, capsys):
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "2", "--faults", "1",
                     "--fault-profile", "chaos"]) == 0
        assert "faults  = seed 1:" in capsys.readouterr().out

    def test_json_payload_describes_the_plan(self, source_file, capsys):
        import json
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "2", "--faults", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"]["seed"] == 7
        assert "net_drops" in payload["stats"]

    def test_zero_fault_run_has_no_fault_line(self, source_file, capsys):
        assert main([source_file, "-O", "--run", "--nodes", "2",
                     "--args", "2"]) == 0
        assert "faults  =" not in capsys.readouterr().out


class TestExitCodes:
    """The documented exit-code taxonomy, and the one-line JSON error
    object every failure prints under ``--json``."""

    def _json_error(self, capsys, argv, code):
        import json
        assert main(argv) == code
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line]
        assert len(lines) == 1, "JSON errors are exactly one line"
        payload = json.loads(lines[0])
        assert payload["ok"] is False
        assert payload["error"]["code"] == code
        assert payload["error"]["type"]
        assert payload["error"]["message"]
        return payload

    def test_missing_file_is_io_error(self, capsys):
        payload = self._json_error(
            capsys, ["/nonexistent/prog.ec", "--run", "--json"], 5)
        assert payload["error"]["type"] == "FileNotFoundError"

    def test_compile_error_code_and_type(self, tmp_path, capsys):
        bad = tmp_path / "bad.ec"
        bad.write_text("int main() { return undeclared_var; }")
        payload = self._json_error(
            capsys, [str(bad), "--run", "--json"], 3)
        assert "undeclared" in payload["error"]["message"]

    def test_usage_error_as_json(self, source_file, capsys):
        payload = self._json_error(
            capsys, [source_file, "--run", "--json",
                     "--fault-drop", "0.5"], 2)
        assert payload["error"]["type"] == "UsageError"

    def test_runtime_error_code(self, tmp_path, capsys):
        import json
        bad = tmp_path / "loop.ec"
        bad.write_text("int main() { int i; i = 0;\n"
                       "while (i < 1000000) { i = i + 1; } return i; }")
        # Statement budget exhaustion is a simulator runtime error.
        code = main([str(bad), "--run", "--json", "--max-stmts", "100"])
        assert code == 4  # EXIT_RUNTIME
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["code"] == 4
        assert "budget" in payload["error"]["message"]

    def test_call_depth_past_the_host_stack_is_a_runtime_error(
            self, tmp_path, capsys):
        deep = tmp_path / "deep.ec"
        deep.write_text("int f(int n) { int r; if (n == 0) return 0; "
                        "r = f(n - 1); return r + 1; }\n"
                        "int main(int n) { return f(n); }\n")
        payload = self._json_error(
            capsys, [str(deep), "--run", "--json", "--args", "5000"], 4)
        assert payload["error"]["type"] == "InterpreterError"
        assert "recursion limit" in payload["error"]["message"]

    def test_nesting_past_the_host_stack_is_a_compile_error(
            self, tmp_path, capsys):
        deep = tmp_path / "deep.ec"
        deep.write_text("int main() { return " + "(" * 3000 + "1"
                        + ")" * 3000 + "; }\n")
        payload = self._json_error(
            capsys, [str(deep), "--run", "--json"], 3)
        assert payload["error"]["type"] == "FrontendError"
        assert str(deep) in payload["error"]["message"]

    @pytest.mark.parametrize("use", [
        "gs.x = n; return 0;",
        "return gs.x;",
        "struct pt *p; p = &gs; return p->x;",
        "struct pt *p; p = (struct pt *) malloc(sizeof(struct pt)); "
        "gs = *p; return 0;",
        "return n;",
    ], ids=["field-write", "field-read", "address", "struct-copy",
            "unused"])
    def test_global_struct_variable_is_a_compile_error(self, use,
                                                       tmp_path, capsys):
        """A field write was an uncaught ``KeyError`` traceback (exit 1,
        no JSON line), a field read a run-time ``InterpreterError``."""
        bad = tmp_path / "gs.ec"
        bad.write_text("struct pt { int x; int y; };\n"
                       "struct pt gs;\n"
                       "int main(int n) { " + use + " }\n")
        payload = self._json_error(
            capsys, [str(bad), "-O", "--run", "--json", "--args", "5"], 3)
        assert payload["error"]["type"] == "SimplifyError"
        assert payload["error"]["message"].startswith(
            f"{bad}:2:1: global 'gs' is declared struct pt")

    def test_max_stmts_must_be_positive(self, source_file, capsys):
        assert main([source_file, "--run", "--max-stmts", "0"]) == 2

    def test_text_mode_errors_stay_off_stdout(self, capsys):
        assert main(["/nonexistent/prog.ec"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestErrorPaths:
    """Bad flags must exit non-zero with a one-line message -- never a
    traceback."""

    def _check(self, capsys, argv, expect):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert expect in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out
        return captured

    def test_fault_knobs_require_faults_seed(self, source_file, capsys):
        self._check(capsys,
                    [source_file, "--run", "--fault-drop", "0.1"],
                    "require --faults")

    def test_fault_profile_requires_faults_seed(self, source_file,
                                                capsys):
        self._check(capsys,
                    [source_file, "--run", "--fault-profile", "mild"],
                    "require --faults")

    @pytest.mark.parametrize("nodes", ["0", "-3"])
    def test_non_positive_nodes_is_a_usage_error(self, source_file,
                                                 capsys, nodes):
        # Not coerced to one node, and the same exit code as every
        # other bad flag value.
        captured = self._check(
            capsys, [source_file, "--run", "--nodes", nodes],
            "nodes must be >= 1")
        assert captured.out == ""

    def test_bad_nodes_under_json_is_an_error_object(self, source_file,
                                                     capsys):
        import json
        assert main([source_file, "--run", "--json", "--nodes", "0"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": False, "error": {
            "type": "UsageError", "code": 2,
            "message": "nodes must be >= 1, got 0"}}

    def test_faults_require_run(self, source_file, capsys):
        self._check(capsys, [source_file, "--faults", "1"],
                    "--faults requires --run")

    def test_fault_drop_out_of_range(self, source_file, capsys):
        self._check(capsys,
                    [source_file, "--run", "--faults", "1",
                     "--fault-drop", "1.5"],
                    "--fault-drop must be in [0, 1]")

    def test_negative_jitter_rejected(self, source_file, capsys):
        self._check(capsys,
                    [source_file, "--run", "--faults", "1",
                     "--fault-jitter", "-4"],
                    "--fault-jitter must be >= 0")

    def test_bad_engine_is_argparse_error(self, source_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([source_file, "--run", "--engine", "turbo"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_bad_fault_profile_is_argparse_error(self, source_file,
                                                 capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([source_file, "--run", "--faults", "1",
                  "--fault-profile", "tsunami"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_non_integer_faults_seed_is_argparse_error(self, source_file,
                                                       capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([source_file, "--run", "--faults", "banana"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_non_integer_trace_capacity_is_argparse_error(
            self, source_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([source_file, "--run", "--trace", "t.json",
                  "--trace-capacity", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
