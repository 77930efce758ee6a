"""An engine name the product no longer has is refused, in the
structured form of the entry it arrived through, with a message that
lists the engines there are (the one ``ENGINES``) -- and so is every
other run-option value ``RunConfig`` refuses: at the entry, before any
worker sees the job.  A program the host's stack cannot hold is refused
the same way at both ends of the pipeline, never with a traceback."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.config import RUN_FLAGS, RunConfig
from repro.earth.interpreter import ENGINES
from repro.errors import (
    EXIT_SERVICE,
    EXIT_USAGE,
    FaultPlanError,
    ServiceError,
    UsageError,
)
from repro.service.jobs import JobSpec

from tests.service.conftest import start_gateway

#: The tier deleted in 2.0.
REMOVED = 'closure'

JOB = {"kind": "run", "source": "int main() { return 7; }",
       "engine": REMOVED}


def _cli(tmp_path, capsys):
    path = tmp_path / "prog.ec"
    path.write_text(JOB["source"])
    with pytest.raises(SystemExit) as info:
        main([str(path), "--run", "--engine", REMOVED])
    assert info.value.code == EXIT_USAGE
    return capsys.readouterr().err


def _run_config(tmp_path, capsys):
    with pytest.raises(UsageError) as direct:
        RunConfig(engine=REMOVED)
    with pytest.raises(UsageError) as parsed:
        RunConfig.from_json({"nodes": 2, "engine": REMOVED})
    assert str(direct.value) == str(parsed.value)
    return str(direct.value)


def _http_refusal(job):
    """POST ``job``; it must come back 400 with the structured error,
    and the pool must not have seen it."""
    gateway = start_gateway(workers=0)

    def submitted():
        status, body = gateway.request("GET", "/metrics")
        assert status == 200
        return body["metrics"]["jobs_submitted"]

    try:
        before = submitted()
        status, body = gateway.request("POST", "/v1/jobs", body=job)
        assert submitted() == before
    finally:
        gateway.close()
    assert status == 400 and body["ok"] is False
    assert body["error"]["type"] == "ServiceError"
    assert body["error"]["code"] == EXIT_SERVICE
    return body["error"]["message"]


def _http(tmp_path, capsys):
    return _http_refusal(JOB)


@pytest.mark.parametrize("entry", [_cli, _run_config, _http],
                         ids=["cli", "runconfig", "http"])
def test_removed_engine_is_rejected(entry, tmp_path, capsys):
    message = entry(tmp_path, capsys)
    assert REMOVED in message
    for engine in ENGINES:
        assert engine in message


# ---------------------------------------------------------------------------
# Every value RunConfig refuses is refused at the entry
# ---------------------------------------------------------------------------

#: case -> (field, bad value, a word of the message).  The first four
#: are values of the right type out of range; the rest are the wrong
#: *type*, as a JSON client can spell it.
BAD_OPTIONS = {
    "nodes": ("nodes", 0, "nodes"),
    "max_stmts": ("max_stmts", -5, "max_stmts"),
    "rcache_line_words": ("rcache_line_words", 0, "rcache_line_words"),
    "params": ("params", "nope", "params preset"),
    "source=5": ("source", 5, "source"),
    "nodes=2.5": ("nodes", 2.5, "nodes"),
    "nodes=true": ("nodes", True, "nodes"),
    "args=abc": ("args", "abc", "args"),
    "entry=5": ("entry", 5, "entry"),
    "faults=x": ("faults", "x", "fault"),
    "faults.seed=q": ("faults", {"seed": "q"}, "fault"),
    "faults.seed=3.7": ("faults", {"seed": 3.7}, "'seed'"),
    "faults.drop_prob=0.1": ("faults", {"seed": 1, "drop_prob": "0.1"},
                             "'drop_prob'"),
    "strict_nil_reads=no": ("strict_nil_reads", "no", "strict_nil_reads"),
    "strict_nil_reads=1": ("strict_nil_reads", 1, "strict_nil_reads"),
}

#: Cases no command line can spell: the field has no run flag, or any
#: text is the right type for it.
NO_FLAG = {"source=5", "args=abc", "entry=5", "faults.seed=q",
           "faults.seed=3.7", "faults.drop_prob=0.1",
           "strict_nil_reads=no", "strict_nil_reads=1"}


def _bad_job(case):
    field, value, _ = BAD_OPTIONS[case]
    return {"kind": "run", "source": JOB["source"], field: value}


def _option_cli(case, tmp_path, capsys):
    path = tmp_path / "prog.ec"
    path.write_text(JOB["source"])
    field, value, _ = BAD_OPTIONS[case]
    option = next(option for option, (name, _) in RUN_FLAGS.items()
                  if name == field)
    if field == "params":
        # The driver has no --params; submit refuses it while building
        # the job, before it dials the server.
        assert main(["submit", str(path), option, value]) == EXIT_SERVICE
        return capsys.readouterr().err
    try:
        code = main([str(path), "--run", option, str(value)])
    except SystemExit as refused:    # by argparse: not an int at all
        code = refused.code
    assert code == EXIT_USAGE
    return capsys.readouterr().err


def _option_job_spec(case, tmp_path, capsys):
    field, value, _ = BAD_OPTIONS[case]
    with pytest.raises(ServiceError) as direct:
        JobSpec(**_bad_job(case))
    with pytest.raises(ServiceError) as parsed:
        JobSpec.from_dict(_bad_job(case))
    assert str(direct.value) == str(parsed.value)
    if field in {spec.name for spec in dataclasses.fields(RunConfig)}:
        # (a fault spec is judged by the plan it describes)
        with pytest.raises((UsageError, FaultPlanError)) as config:
            RunConfig(**{field: value})
        assert str(config.value) == str(direct.value)
    return str(direct.value)


def _option_http(case, tmp_path, capsys):
    return _http_refusal(_bad_job(case))


@pytest.mark.parametrize("entry,case", [
    pytest.param(entry, case, id=f"{name}-{case}")
    for case in sorted(BAD_OPTIONS)
    for name, entry in (("cli", _option_cli),
                        ("jobspec", _option_job_spec),
                        ("http", _option_http))
    if not (entry is _option_cli and case in NO_FLAG)])
def test_bad_run_option_is_rejected_at_the_entry(entry, case, tmp_path,
                                                 capsys):
    message = entry(case, tmp_path, capsys)
    assert BAD_OPTIONS[case][2] in message


# ---------------------------------------------------------------------------
# A program deeper than the host's stack is a structured error
# ---------------------------------------------------------------------------

_RECURSIVE = ("int f(int n) { int r; if (n == 0) return 0; "
              "r = f(n - 1); return r + 1; }\n"
              "int main(int n) { return f(n); }\n")

#: case -> (source, run options, exit code, error type, a word of the
#: message).  Two programs nest deeper than the compiler can recurse;
#: one calls deeper than either engine can; one spells a token the
#: lexer has to refuse itself (``int('0x', 16)`` would raise for it);
#: two use a construct the simplifier has to refuse by name and place
#: (neither is a nesting problem, and neither may be a traceback).
TOO_DEEP = {
    "assign-as-value": ("int main() { int a; int b; a = b = 3; "
                        "return a; }\n", {}, 3, "SimplifyError",
                        "deep.ec:1:34: an assignment used as a value"),
    "array-variable": ("int g[4];\nint main() { g[1] = 5; "
                       "return g[1]; }\n", {}, 3, "SimplifyError",
                       "deep.ec:2:15: 'g' is declared int[4]"),
    "hex-no-digits": ("int main() { return 0x; }\n", {}, 3, "LexError",
                      "has no digits"),
    "parens": ("int main() { return " + "(" * 3000 + "1" + ")" * 3000
               + "; }\n", {}, 3, "FrontendError", "nest too deeply"),
    "ifs": ("int main() { int x; x = 0;\n" + "if (x == 0) {\n" * 1500
            + "x = 1;\n" + "}\n" * 1500 + "return x; }\n",
            {}, 3, "FrontendError", "nest too deeply"),
    "calls-codegen": (_RECURSIVE, {"args": [5000], "engine": "codegen"},
                      4, "InterpreterError", "codegen engine"),
    "calls-ast": (_RECURSIVE, {"args": [5000], "engine": "ast"},
                  4, "InterpreterError", "ast engine"),
}


@pytest.mark.parametrize("case", sorted(TOO_DEEP))
def test_too_deep_program_on_the_command_line(case, tmp_path, capsys):
    source, options, code, _, word = TOO_DEEP[case]
    path = tmp_path / "deep.ec"
    path.write_text(source)
    argv = [str(path), "--run"]
    if options:
        argv += ["--args", "5000", "--engine", options["engine"]]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and word in captured.err
    assert captured.err.count("\n") == 1
    if code == 3:
        assert str(path) in captured.err


def test_malformed_literal_under_json_is_the_error_object(tmp_path, capsys):
    path = tmp_path / "hex.ec"
    path.write_text(TOO_DEEP["hex-no-digits"][0])
    assert main([str(path), "--run", "--json"]) == 3
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert captured.err == "" and captured.out.count("\n") == 1
    assert error["type"] == "LexError" and error["code"] == 3
    assert f"{path}:1:21" in error["message"]


@pytest.fixture(scope="module")
def one_worker_gateway():
    gateway = start_gateway(workers=1)
    yield gateway
    gateway.close()


@pytest.mark.parametrize("case", sorted(TOO_DEEP))
def test_too_deep_program_as_a_job(case, one_worker_gateway):
    from repro.service.jobs import execute_job
    source, options, code, error_type, word = TOO_DEEP[case]
    spec = JobSpec("run", source=source, filename="deep.ec", nodes=1,
                   **options)
    in_process = execute_job(spec)           # never raises
    status, body = one_worker_gateway.request("POST", "/v1/jobs",
                                              body=spec.to_dict())
    assert status == 422 and body["ok"] is False
    for error in (in_process.error, body["result"]["error"]):
        assert error["type"] == error_type and error["code"] == code
        assert word in error["message"]
    assert body["result"]["worker"] == 0
