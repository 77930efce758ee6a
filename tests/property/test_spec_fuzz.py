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
characters).

Two selftest behaviours are left out: ``sleep`` and ``crash`` do what
they say on purpose (the service's own tests drive them)."""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm.optimizer import CommConfig
from repro.config import PARAMS_PRESETS, WIRE_FIELDS, RunConfig
from repro.earth.faults import FaultPlan
from repro.earth.interpreter import ENGINES
from repro.errors import ReproError
from repro.service.jobs import JOB_KINDS, JobResult, JobSpec, execute_job

SOURCE = "int main(int n) { return n + 1; }"

FUZZ = settings(max_examples=20, derandomize=True, deadline=None,
                suppress_health_check=list(HealthCheck))

HUGE = st.sampled_from([2**31, -2**31 - 1, 2**63, 10**18, 10**400,
                        -10**400])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
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
    "selftest": st.fixed_dictionaries(
        {"behavior": st.sampled_from(["echo", "fail", "nope"])},
        optional={"value": JUNK, "message": JUNK}),
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
