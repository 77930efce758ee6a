"""Every job spec ends in an answer or a structured error.

A derandomized Hypothesis slice over the job wire's declared schema:
:class:`~repro.config.RunConfig`'s wire fields, :class:`JobSpec`'s own
fields, the :class:`~repro.comm.optimizer.CommConfig` JSON and the
:class:`~repro.earth.faults.FaultPlan` spec.  Every field draws valid
values, its bounds and one past them, wrong types, huge ints, NaN /
inf and nested junk.  ``JobSpec.from_dict`` -> ``canonical_key`` ->
``execute_job`` must end in a :class:`JobResult` or a
:class:`~repro.errors.ReproError`, and a spec the wire accepts must
keep what it was given (a string ``inline`` once became a list of its
characters).  Every selftest behaviour is drawn: computed in-process a
``crash`` is a structured error, and a ``sleep`` draws only short or
refused lengths.

The same specs, and bodies that are no spec at all, are posted to one
in-process gateway: every answer is a JSON error body or an envelope,
under the status its error code maps to -- never a 500, never a
dropped connection."""

import dataclasses
import http.client
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm.optimizer import CommConfig
from repro.config import PARAMS_PRESETS, WIRE_FIELDS, RunConfig
from repro.earth.faults import FaultPlan
from repro.earth.interpreter import ENGINES
from repro.errors import ReproError, http_status_for
from repro.service.jobs import (
    JOB_KINDS,
    MAX_SLEEP_S,
    JobResult,
    JobSpec,
    execute_job,
)
from tests.service.conftest import start_gateway

SOURCE = "int main(int n) { return n + 1; }"

FUZZ = settings(max_examples=20, derandomize=True, deadline=None,
                suppress_health_check=list(HealthCheck))



def _power_of_ten(exponent):
    """``10**exponent``, signed as ``exponent``."""
    return 10 ** exponent if exponent > 0 else -10 ** -exponent


#: Past 4,300 digits an int has no repr and no JSON text (so it is
#: built after the draw: a strategy holding one has no repr either).
HUGE = st.sampled_from([2**31, -2**31 - 1, 2**63, 10**18]) \
    | st.sampled_from([400, -400, 5000, -5000]).map(_power_of_ten)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | HUGE,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

#: The range of every int wire field of RunConfig (None: unbounded).
INT_RANGES = {
    "nodes": (1, RunConfig.MAX_NODES),
    "rcache_capacity": (0, None),
    "rcache_line_words": (1, None),
    "max_stmts": (1, RunConfig.MAX_STMTS),
}
#: The names a str wire field of RunConfig knows, and one it does not.
NAMES = {
    "entry": ["main", "nope", ""],
    "engine": list(ENGINES) + ["closure"],
    "params": list(PARAMS_PRESETS) + ["warp"],
}
#: The largest count a fault spec field takes.
COUNT_HIGH = {"seed": None, "su_slowdown_windows": FaultPlan.MAX_WINDOWS,
              "stall_windows": FaultPlan.MAX_WINDOWS}


def _bounded_int(low, high):
    """Ints inside the range, at each end of it and one past."""
    edges = [low - 1, low, low + 1]
    if high is not None:
        edges += [high - 1, high, high + 1]
    return st.integers(low, low + 8) | st.sampled_from(edges)


def _any(valid):
    """``valid`` values or anything a wire can spell instead."""
    return valid | st.one_of(st.text(max_size=4), JUNK, HUGE, NON_FINITE)


def _fault_specs():
    numbers = st.floats(-1.0, 2e6) | st.sampled_from([0.0, 1.0])
    fields = {name: _any(_bounded_int(0, COUNT_HIGH[name])
                         if name in COUNT_HIGH else numbers)
              for name in FaultPlan(0).spec()}
    return st.fixed_dictionaries(
        {"seed": _any(st.integers(0, 9))},
        optional={name: value for name, value in fields.items()
                  if name != "seed"})


def _run_field(field):
    if field.name in INT_RANGES:
        return _bounded_int(*INT_RANGES[field.name])
    if field.name in NAMES:
        return st.sampled_from(NAMES[field.name])
    if field.name == "args":
        arg = _bounded_int(-2**31, 2**31 - 1) | st.floats(-1e3, 1e3)
        return st.lists(_any(arg), min_size=1, max_size=2)
    if field.name == "faults":
        return _fault_specs()
    assert type(field.default) is bool, field.name
    return st.booleans()


#: field -> the values a well-meant spec gives it, bounds and one past
#: them included.
RUN_FIELDS = {field.name: _run_field(field)
              for field in dataclasses.fields(RunConfig)
              if field.name in WIRE_FIELDS}

COMM = st.fixed_dictionaries({}, optional={
    **{name: _any(st.booleans())
       for name in CommConfig.__dataclass_fields__ if name != "opt"},
    "opt": _any(st.sampled_from(["legacy", "probabilistic", "warp"])
                | st.fixed_dictionaries(
                    {}, optional={"probabilistic": _any(st.booleans()),
                                  "loop_weight": st.just(2)}))})

SPEC_FIELDS = {
    "source": st.sampled_from([SOURCE, "int main( {", ""]),
    "benchmark": st.sampled_from(["treeadd", "nosuch"]),
    "filename": st.just("job.ec"),
    "optimize": st.booleans(),
    "comm": COMM,
    "inline": st.booleans() | st.lists(
        st.sampled_from(["add", "main", "a"]), max_size=2),
    "small": st.booleans(),
    # Never a long valid sleep: a drawn one is at most a millisecond.
    "selftest": st.fixed_dictionaries(
        {"behavior": st.sampled_from(["echo", "sleep", "fail", "crash",
                                      "nope"])},
        optional={"value": JUNK, "message": JUNK,
                  "seconds": st.sampled_from([0, 0.001]) | HUGE
                  | st.sampled_from([-0.001, MAX_SLEEP_S + 1, math.nan,
                                     math.inf, "0", True]),
                  "exit_code": st.sampled_from([1, 17, 255]) | HUGE
                  | st.sampled_from([0, 256, 1.0, True])}),
}

FIELDS = {**SPEC_FIELDS, **RUN_FIELDS}


#: ``kind`` and a retired field are fuzzed too.
FUZZED = {**FIELDS, "kind": st.sampled_from(JOB_KINDS + ("three-way",)),
          "config": st.just({})}


@st.composite
def jobs(draw):
    """A well-meant spec: a kind, what it needs, a few more fields."""
    job = {"kind": draw(st.sampled_from(JOB_KINDS))}
    if job["kind"] == "selftest":
        job["selftest"] = draw(SPEC_FIELDS["selftest"])
    else:
        name = draw(st.sampled_from(["source", "benchmark"]))
        job[name] = draw(SPEC_FIELDS[name])
    for name in draw(st.lists(st.sampled_from(sorted(FIELDS)),
                              max_size=4, unique=True)):
        job[name] = draw(FIELDS[name])
    return job


def test_the_strategies_cover_the_declared_schema():
    """A new wire field needs a strategy here before it ships."""
    assert set(RUN_FIELDS) == set(WIRE_FIELDS)
    wire = set(JobSpec("compile", source=SOURCE).to_dict())
    assert wire == set(FIELDS) | {"kind"}
    assert {name for name in WIRE_FIELDS
            if type(getattr(RunConfig(), name)) is int} == set(INT_RANGES)


def _kept(given, name):
    """What an accepted spec's wire form holds for field ``name``."""
    if name == "inline" and isinstance(given, list):
        return sorted(given)
    return given


def _ends_well(job):
    try:
        spec = JobSpec.from_dict(job)
        spec.canonical_key()
    except ReproError:
        return
    wire = spec.to_dict()
    json.dumps(wire, allow_nan=False)
    for name, value in job.items():
        if value is not None and name not in ("comm", "faults"):
            assert wire[name] == _kept(value, name), name
    assert isinstance(execute_job(spec), JobResult)


@FUZZ
@pytest.mark.parametrize("field", sorted(FUZZED))
@given(data=st.data())
def test_a_spec_ends_in_an_answer_or_a_structured_error(field, data):
    """One field of a well-meant spec set to anything."""
    job = data.draw(jobs())
    job[field] = data.draw(_any(FUZZED[field]), label=field)
    _ends_well(job)


@FUZZ
@given(JUNK)
def test_junk_ends_in_a_structured_error(job):
    _ends_well(job)


@pytest.mark.parametrize("exponent", [5000, -5000])
@pytest.mark.parametrize("field", sorted(INT_RANGES) + ["inline", "kind"])
def test_an_int_with_no_repr_is_a_structured_error(field, exponent):
    """Every int wire field, and ``inline``, alone or in a list: the
    refusal never echoes an int Python cannot print."""
    huge = _power_of_ten(exponent)
    for value in (huge, [huge]):
        with pytest.raises(ReproError):
            JobSpec.from_dict({"kind": "run", "source": SOURCE,
                               field: value}).canonical_key()


# -- the gateway -------------------------------------------------------------


@pytest.fixture(scope="module")
def live():
    """One in-process gateway computing inline, memory cache only."""
    gateway = start_gateway(workers=0)
    yield gateway
    gateway.close()


def _body(job):
    """The request body for ``job``: its JSON, or None where JSON has
    no text for it (an int past 4,300 digits)."""
    try:
        return json.dumps(job).encode("utf-8")
    except ValueError:
        return None


def _post(live, data):
    """One raw ``POST /v1/jobs``; a dropped connection raises."""
    connection = http.client.HTTPConnection(live.host, live.port,
                                            timeout=30)
    try:
        connection.request("POST", "/v1/jobs", body=data)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _answers_well(live, data):
    status, body = _post(live, data)
    assert status != 500, body
    if "result" in body:
        assert set(body) == {"ok", "singleflight", "result"}
        result = body["result"]
        assert body["ok"] is result["ok"]
        expected = 200 if result["ok"] \
            else http_status_for(result["error"]["code"])
    else:
        assert body["ok"] is False
        assert set(body["error"]) == {"type", "message", "code"}
        busy = body["error"]["type"] == "Busy"
        assert set(body) == ({"ok", "error", "retry"} if busy
                             else {"ok", "error"})
        expected = 503 if busy else 400
    assert status == expected, body


#: What a body can be besides a spec: nothing, not JSON, not an object.
NOT_A_SPEC = st.just(b"") | st.binary(max_size=6) | JUNK.filter(
    lambda value: not isinstance(value, dict)).map(_body)


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_the_gateway_answers_every_body(live, data):
    """A well-meant spec, one with a field set to anything, or a body
    that is no spec: a structured answer, under its mapped status."""
    case = data.draw(st.sampled_from(["spec", "fuzzed", "body"]))
    if case == "body":
        body = data.draw(NOT_A_SPEC, label="body")
    else:
        job = data.draw(jobs())
        if case == "fuzzed":
            field = data.draw(st.sampled_from(sorted(FUZZED)),
                              label="field")
            job[field] = data.draw(_any(FUZZED[field]), label=field)
        body = _body(job)
    if body is not None:
        _answers_well(live, body)
