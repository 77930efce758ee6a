"""The CLI's flag surface, pinned: the option strings of every verb's
``--help``, recorded at the commit before the run flags moved into the
one ``RUN_FLAGS`` table.  A verb gaining or losing a flag shows here;
so does a table row that names no ``RunConfig`` field."""

import dataclasses
import re

import pytest

from repro.__main__ import SERVICE_VERBS, main
from repro.config import (
    ASSEMBLED_FIELDS,
    RUN_FLAGS,
    RunConfig,
    flag_dest,
)

#: verb ("driver" is the verb-less compile/run driver) -> its sorted
#: option strings.
OPTION_STRINGS = {
    "driver": """
        --args --dump-codegen --engine --entry --fault-drop
        --fault-jitter --fault-profile --faults --function --help
        --inline --json --max-stmts --nodes --opt-preset --optimize
        --rcache-capacity --rcache-line --run --shards --show --trace
        --trace-capacity -O -h
        """,
    "serve": """
        --cache-dir --help --host --max-attempts --max-queue-depth
        --no-cache --port --timeout --workers -h
        """,
    "submit": """
        --args --benchmark --engine --entry --fault-profile
        --faults --help --host --inline --json --kind --no-optimize
        --nodes --opt-preset --params --port --rcache-capacity
        --rcache-line --small --timeout -h
        """,
    "batch": """
        --benchmarks --cache-dir --connect --engine --fault-profile
        --faults --help --jobs --json --kind --no-cache --nodes
        --opt-preset --output --rcache-capacity --rcache-line --small
        --workers -h
        """,
    "fleet-store": """
        --cache-dir --help --host --port -h
        """,
    "genjobs": """
        --count --engines --fault-profiles --help --kind --mixes
        --nodes --output --rcache --seed --shapes --sizes --sources
        --sweeps -h
        """,
}


def _option_strings(argv, capsys):
    """The option strings ``--help`` lists: the entry lines of
    argparse's option table (two-space indent, then a dash)."""
    with pytest.raises(SystemExit) as info:
        main(argv + ["--help"])
    assert info.value.code == 0
    found = set()
    for line in capsys.readouterr().out.splitlines():
        entry = re.match(r"^  (-\S.*?)(?:  |$)", line)
        if entry:
            found.update(part.split()[0]
                         for part in entry.group(1).split(", "))
    return sorted(found)


def test_every_verb_is_pinned():
    assert set(OPTION_STRINGS) == {"driver", *SERVICE_VERBS}


@pytest.mark.parametrize("verb", sorted(OPTION_STRINGS))
def test_option_strings_of_help(verb, capsys):
    argv = [] if verb == "driver" else [verb]
    assert _option_strings(argv, capsys) == OPTION_STRINGS[verb].split()


def test_distinct_flags_across_the_verbs():
    flags = {flag for text in OPTION_STRINGS.values()
             for flag in text.split()} - {"-h", "--help", "-O"}
    assert len(flags) == 49   # + 5 of harness.report / shard.scenarios


def test_retired_flag_is_a_usage_error(tmp_path, capsys):
    """Field reordering is gone: its flag is refused like any unknown
    one, with the usage code and no traceback."""
    program = tmp_path / "t.ec"
    program.write_text("int main() { return 0; }\n")
    with pytest.raises(SystemExit) as info:
        main([str(program), "--reorder-fields"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --reorder-fields" in err
    assert "Traceback" not in err


def test_every_run_flag_row_names_a_run_config_field():
    fields = {spec.name for spec in dataclasses.fields(RunConfig)}
    for option, (field, _) in RUN_FLAGS.items():
        assert option.startswith("--"), option
        assert field in fields, option
    # Some verb attaches every row, under the dest the readers expect.
    attached = {flag for text in OPTION_STRINGS.values()
                for flag in text.split()}
    assert set(RUN_FLAGS) <= attached
    assert flag_dest("--rcache-line") == "rcache_line"


def test_direct_flags_default_to_the_field_default():
    from repro.__main__ import _parse_args
    opts = _parse_args(["prog.ec"])
    defaults = RunConfig()
    for option, (field, _) in RUN_FLAGS.items():
        if field not in ASSEMBLED_FIELDS \
                and hasattr(opts, flag_dest(option)):
            assert getattr(opts, flag_dest(option)) \
                == getattr(defaults, field), option
    assert RunConfig.from_cli_args(opts) == defaults


# ---------------------------------------------------------------------------
# The verbs build their jobs from the table: same specs as by keyword
# ---------------------------------------------------------------------------

RUN_FLAG_ARGV = ["--engine", "ast", "--faults", "3", "--fault-profile",
                 "mild", "--rcache-capacity", "8", "--rcache-line", "4",
                 "--opt-preset", "probabilistic"]


def _keyword_spec(kind, nodes):
    from repro.comm.optimizer import CommConfig
    from repro.earth.faults import plan_from_cli
    from repro.service.jobs import JobSpec
    return JobSpec(kind, benchmark="power", small=True, nodes=nodes,
                   engine="ast", rcache_capacity=8, rcache_line_words=4,
                   faults=plan_from_cli(3, "mild", None, None).spec(),
                   comm=CommConfig(opt="probabilistic"))


def test_batch_sweep_carries_every_run_flag(capsys):
    import json
    assert main(["batch", "--benchmarks", "power", "--nodes", "1,2",
                 "--small", "--kind", "run", "--workers", "0",
                 "--no-cache", "--json"] + RUN_FLAG_ARGV) == 0
    results = json.loads(capsys.readouterr().out)
    assert [r["key"] for r in results] == [
        _keyword_spec("run", nodes).canonical_key() for nodes in (1, 2)]
    assert all(r["ok"] for r in results)


def test_submit_carries_every_run_flag(capsys):
    import json
    from tests.fleet.conftest import start_gateway
    server = start_gateway(workers=0)
    try:
        code = main(["submit", "--benchmark", "power", "--small",
                     "--nodes", "2", "--port", str(server.port),
                     "--json"] + RUN_FLAG_ARGV)
        result = json.loads(capsys.readouterr().out)
        # Left alone, submit's machine is 4 nodes (JobSpec's default).
        main(["submit", "--benchmark", "power", "--small", "--kind",
              "compile", "--port", str(server.port), "--json"])
        plain = json.loads(capsys.readouterr().out)
        # batch --connect reaches the same gateway: the compile job
        # submit just ran comes back from its cache.
        main(["batch", "--benchmarks", "power", "--small", "--kind",
              "compile", "--nodes", "4", "--connect",
              f"127.0.0.1:{server.port}", "--json"])
        [swept] = json.loads(capsys.readouterr().out)
    finally:
        server.close()
    assert swept["key"] == plain["key"] and swept["cache"] == "hit"
    assert code == 0 and result["ok"]
    assert result["key"] == _keyword_spec("run", 2).canonical_key()
    assert result["payload"]["run"]["num_nodes"] == 2
    from repro.service.jobs import JobSpec
    assert plain["key"] == JobSpec("compile", benchmark="power",
                                   small=True).canonical_key()


def test_batch_connect_sweeps_legs_through_the_gateway(capsys):
    import json
    from tests.fleet.conftest import start_gateway
    server = start_gateway(workers=0)
    argv = ["batch", "--benchmarks", "power", "--small", "--nodes",
            "1,2", "--kind", "four-way", "--connect",
            f"127.0.0.1:{server.port}", "--json"]
    try:
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        _, body = server.request("GET", "/metrics")
    finally:
        server.close()
    assert [(r["processors"], r["configuration"]) for r in cold] == [
        (nodes, configuration) for nodes in (1, 2)
        for configuration in ("sequential", "simple", "optimized",
                              "rcached")]
    assert all(r["ok"] and r["kind"] == "run" for r in cold)
    assert {r["cache"] for r in cold} == {"miss"}
    assert {r["cache"] for r in warm} == {"hit"}
    assert [r["payload"] for r in warm] == [r["payload"] for r in cold]
    # Eight results, seven addresses: the sequential leg was posted
    # once per batch.
    assert body["metrics"]["cache_misses"] == 7
    assert body["metrics"]["cache_hits"] == 7


def test_batch_labels_each_leg(tmp_path, capsys):
    import json
    out = tmp_path / "legs.json"
    assert main(["batch", "--benchmarks", "power", "--small", "--nodes",
                 "2", "--workers", "0", "--no-cache", "--output",
                 str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[::2]] == [
        "power p=2 sequential", "power p=2 simple", "power p=2 optimized",
        "batch"]
    assert lines[0].startswith("power p=2 sequential: run  cache=miss")
    assert lines[1].endswith("simulated on 1 node(s)")
    assert lines[-1] == (f"batch: 3/3 ok, 0 cache hit(s), written to "
                         f"{out}")
    assert [(r["benchmark"], r["processors"], r["configuration"])
            for r in json.loads(out.read_text())] == [
        ("power", 2, "sequential"), ("power", 2, "simple"),
        ("power", 2, "optimized")]


def test_batch_ends_on_a_failed_legs_own_code(monkeypatch, capsys):
    """Failed legs are reported like any failed job (4: a simulator
    error); there is no value to compare, so no comparison is made."""
    from repro.olden.loader import get_benchmark
    monkeypatch.setattr(get_benchmark("power"), "max_stmts", 10)
    assert main(["batch", "--benchmarks", "power", "--small", "--nodes",
                 "1", "--workers", "0", "--no-cache"]) == 4
    captured = capsys.readouterr()
    assert captured.out.count("FAILED [") == 3
    assert captured.out.splitlines()[-1] == "batch: 0/3 ok, 0 cache hit(s)"
    assert captured.err == ""


@pytest.mark.parametrize("kind", ["three-way", "four-way"])
def test_batch_refuses_a_bundle_kind_in_a_jobs_file(kind, tmp_path,
                                                    capsys):
    """The sweep shapes ``batch --kind`` names are not job kinds."""
    import json
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([{"kind": kind, "benchmark": "power",
                                 "small": True}]))
    assert main(["batch", "--jobs", str(jobs), "--workers", "0",
                 "--no-cache"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown job kind {kind!r} "
                            "(known: compile, run, selftest)\n")


@pytest.mark.parametrize("job,message", [
    ({"kind": "run", "benchmark": "power", "nodes": 10**7},
     "nodes must be <= 4096, got 10000000"),
    ({"kind": "run", "source": "int main() { return 0; }",
      "max_stmts": 10**18},
     "max_stmts must be <= 200000000"),
    ({"kind": "compile", "benchmark": "treeadd", "selftest": "x"},
     "selftest must be an object, got str"),
    ({"kind": "selftest",
      "selftest": {"behavior": "echo", "value": float("nan")}},
     "job spec holds a non-finite number (nan); JSON has none")],
    ids=["nodes", "max-stmts", "selftest-str", "echo-nan"])
def test_batch_refuses_a_fuzz_found_spec(job, message, tmp_path, capsys):
    """A bad spec in a jobs file is a service error (exit 6) with one
    line, like every other."""
    import json
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([job]))
    assert main(["batch", "--jobs", str(jobs), "--workers", "0",
                 "--no-cache"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("verb", ["submit", "genjobs"])
def test_one_job_verbs_offer_the_two_public_kinds(verb, capsys):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    assert "--kind {compile,run}" in capsys.readouterr().out


def test_genjobs_is_the_generator_stream(capsys):
    import json
    from repro.workload import generate_jobs
    assert main(["genjobs", "--seed", "7", "--count", "4", "--nodes",
                 "2,4", "--engines", "codegen,ast", "--fault-profiles",
                 "none,lossy", "--rcache", "0,16"]) == 0
    jobs = generate_jobs(7, 4, nodes=[2, 4], engines=["codegen", "ast"],
                         fault_profiles=[None, "lossy"],
                         rcache_capacities=[0, 16])
    emitted = json.loads(capsys.readouterr().out)
    assert emitted == [job.to_dict() for job in jobs]
    for job, wire in zip(jobs, emitted):
        assert wire["nodes"] == job.run.nodes
        assert wire["args"] == job.args and wire["max_stmts"] is None


@pytest.mark.parametrize("argv", [
    ["genjobs", "--nodes", "0", "--count", "1"],
    ["genjobs", "--engines", "closure", "--count", "1"],
    ["genjobs", "--sizes", "5:3"],
    ["genjobs", "--sweeps", "3:1"],
    ["serve", "--workers", "-1"],
    ["serve", "--max-attempts", "0"],
    ["serve", "--max-queue-depth", "0"],
    ["serve", "--max-queue-depth", "-1"],
    ["serve", "--port", "99999"],
    ["serve", "--timeout", "-1"],
    ["fleet-store", "--port", "99999", "--cache-dir", "unused"],
    ["submit", "--port", "99999", "--benchmark", "power"],
    ["submit", "--port", "-1", "--benchmark", "power"],
    ["batch", "--connect", "127.0.0.1:99999", "--benchmarks", "power"],
    ["batch", "--workers", "-1", "--benchmarks", "power"],
], ids=lambda argv: "-".join(argv[:3]).replace("--", ""))
def test_bad_flag_value_is_a_one_line_usage_error(argv, capsys,
                                                  monkeypatch):
    import socket

    def no_sockets(*args, **kwargs):
        raise AssertionError("refused before any socket is opened")

    # A bad value is refused before anything is bound or connected.
    monkeypatch.setattr(socket, "socket", no_sockets)
    monkeypatch.setattr(socket, "create_connection", no_sockets)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if argv[:2] not in (["genjobs", "--nodes"], ["genjobs", "--engines"]):
        # (those two are refused by RunConfig, in its field's name)
        assert captured.err.startswith(f"error: {argv[1]} ")


#: Every "comma-separated integers" flag goes through the one parser
#: (``config.int_list``): case -> (argv, the flag its error names);
#: FILE stands for a source file that is read but never parsed.
NUMBER_LISTS = {
    "driver": (["FILE", "--run", "--args", "abc"], "--args"),
    "driver-json": (["FILE", "--run", "--args", "abc", "--json"],
                    "--args"),
    "submit": (["submit", "FILE", "--args", "abc"], "--args"),
    "submit-json": (["submit", "FILE", "--args", "abc", "--json"],
                    "--args"),
    "batch": (["batch", "--nodes", "a,b"], "--nodes"),
    "batch-json": (["batch", "--nodes", "a,b", "--json"], "--nodes"),
    "genjobs": (["genjobs", "--rcache", "1,x"], "--rcache"),
    "report": (["--nodes", "x"], "--nodes"),
}


@pytest.mark.parametrize("case", sorted(NUMBER_LISTS))
def test_bad_number_list_is_a_usage_error(case, tmp_path, capsys):
    import json
    from repro.harness import report
    source = tmp_path / "prog.ec"
    source.write_text("int main() { return 0; }\n")
    argv, flag = NUMBER_LISTS[case]
    argv = [str(source) if arg == "FILE" else arg for arg in argv]
    entry = report.main if case == "report" else main
    assert entry(argv) == 2
    captured = capsys.readouterr()
    if case.endswith("-json"):
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "UsageError" and error["code"] == 2
        assert flag in error["message"]
    else:
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} needs "
                                       f"comma-separated integers")
        assert captured.err.count("\n") == 1


#: What ``report`` refuses, it refuses before the first table: case ->
#: (argv, exit code, what the one stderr line says).  DIR stands for a
#: directory that does not exist.
REPORT_REFUSALS = {
    "benchmark": (["--benchmarks", "power,nosuch"], 2,
                  "unknown benchmark 'nosuch'"),
    "nodes": (["--nodes", "1,0"], 2, "nodes must be >= 1, got 0"),
    "metrics-path": (["--metrics-json", "DIR/m.json"], 5, "DIR/m.json"),
    "workers": (["--workers", "-1"], 2, "--workers must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(REPORT_REFUSALS))
def test_report_refuses_before_the_first_table(case, tmp_path, capsys):
    from repro.harness import report
    argv, code, message = REPORT_REFUSALS[case]
    missing = str(tmp_path / "missing")
    argv = ["--small"] + [arg.replace("DIR", missing) for arg in argv]
    assert report.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message.replace("DIR", missing) in captured.err
    assert captured.err.count("\n") == 1


#: The eight tuning flags 2.3 removed: the paper's weights are
#: constants and ``--opt-preset`` names the only choice left.
RETIRED_OPT_FLAGS = (
    ["--opt-loop-weight", "4"], ["--opt-branch-weight", "0.25"],
    ["--opt-probabilistic"], ["--opt-block-threshold", "2"],
    ["--opt-min-expected", "1"], ["--opt-spurious-ratio", "8"],
    ["--opt-shape", "full"], ["--opt-private-lines"])


@pytest.mark.parametrize("flag", RETIRED_OPT_FLAGS, ids=lambda f: f[0])
def test_retired_opt_flag_is_a_usage_error(flag, tmp_path, capsys):
    source = tmp_path / "prog.ec"
    source.write_text("int main() { return 0; }\n")
    with pytest.raises(SystemExit) as info:
        main([str(source), "-O", "--run"] + flag)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


#: Two fields read through a pointer parameter: the probabilistic
#: preset blocks a two-field group into one ``blkmov`` and the legacy
#: one (threshold of three) pipelines it, so the two presets print
#: different listings.
PRESET_SOURCE = """
struct pair { int x; int y; };

int sum(struct pair *p)
{
    return p->x + p->y;
}

int main()
{
    struct pair *remote;
    remote = (struct pair *) malloc(sizeof(struct pair)) @ 1;
    remote->x = 5;
    remote->y = 7;
    return sum(remote);
}
"""


@pytest.mark.parametrize("preset", ["legacy", "probabilistic"])
def test_opt_preset_flag_compiles_under_that_preset(preset, tmp_path,
                                                    capsys):
    """``--opt-preset`` is the one optimizer flag left, and the driver
    prints what the library compiles under the same preset."""
    from repro.comm.optimizer import CommConfig
    from repro.harness.pipeline import compile_earthc
    from repro.simple.printer import print_function
    source = tmp_path / "prog.ec"
    source.write_text(PRESET_SOURCE)
    assert main([str(source), "-O", "--opt-preset", preset,
                 "--show", "simple"]) == 0
    out = capsys.readouterr().out
    compiled = compile_earthc(PRESET_SOURCE, str(source), optimize=True,
                              config=CommConfig(opt=preset))
    assert out == "".join(print_function(function) + "\n\n"
                          for function in compiled.simple.functions.values())
    assert out.count("blkmov(") == (preset == "probabilistic")


def test_report_ends_on_a_failed_jobs_own_code(monkeypatch, capsys):
    """A leg that fails mid-run is one ``error:`` line and the exit
    code the main CLI gives that failure (4: a simulator error)."""
    from repro.harness import report
    from repro.olden.loader import get_benchmark
    monkeypatch.setattr(get_benchmark("power"), "max_stmts", 10)
    assert report.main(["--small", "--nodes", "1",
                        "--benchmarks", "power"]) == 4
    captured = capsys.readouterr()
    assert "Table II" in captured.out and "Table III" not in captured.out
    assert captured.err.startswith("error: job failed [")
    assert captured.err.count("\n") == 1
