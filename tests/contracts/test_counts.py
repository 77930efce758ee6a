"""Host-independent counts: the compiler and the simulator do each
thing once, and an idle worker pool nothing.

Each pin is a module constant, counted on the interpreter
:data:`COUNTED_ON` names (3.12 inlines comprehensions, PEP 709, and
calls fewer frames), and every test here is skipped on any other
version.  A count is taken in a fresh interpreter (this file run as a
script), so test order, parallel workers and a coverage tracer cannot
move it, and the profiler it installs cannot replace a coverage
tracer.  What one compile or run does once is tested where it is cut
(``tests/comm/test_optimizer_facts.py``: 20 alias-fact solves,
``tests/frontend/test_parser_reference.py``: one parser call per
operand, ``tests/comm/test_placement_directions.py``: one placement
traversal per phase); the totals below catch the rest.

Print the counts with ``PYTHONPATH=src python
tests/contracts/test_counts.py compile`` (or ``simulate``, ``collect``
or ``idle``).
"""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

COUNTED_ON = (3, 11)

#: Python call events into the ``repro`` package over the ten Olden
#: cold compiles (489,682 with a locality fixpoint that re-walked every
#: function per round and a label map built three times per function;
#: 497,611 with a ``HeapEffect`` per record and a re-solve after
#: forwarding; 612,327 with token objects, a location
#: per token, a bound-method table per keyword statement, a ``getattr``
#: probe of eleven names per inlined expression, a printer per threaded
#: statement and two goto-elimination walks).
COMPILE_CALLS = 479_683
#: Line events in ``analysis/rw_sets.py`` over the same compiles
#: (246,148 with a ``HeapEffect`` per record and a re-solve after
#: forwarding; 327,838 with per-statement variable reads and shared
#: variables).
RW_SETS_LINES = 206_711
#: Line events in ``analysis/points_to.py`` and ``analysis/rw_sets.py``
#: (421,735 with a ``HeapEffect`` per record and a re-solve after
#: forwarding; 440,182 with a likelihood per points-to fact; 528,065
#: with whole-table scans; 1,362,002 with a round-robin solver, a
#: holder scan per field constraint and one merge per statement).
ALIAS_FACT_LINES = 349_961
#: Python calls from ``earth/machine.py`` over one ten-Olden round at
#: catalog size on 4 nodes (793,691 with a closure per network leg).
MACHINE_CALLS = 562_093
#: Bound on ``earth/codegen.py`` calls outside the run-time helpers in
#: a second, warm round of the same compiled programs (456 counted;
#: 75,485 when every run emitted its functions again).
WARM_EMITTER_CALLS = 600
#: Bound on the cyclic collector's passes (all generations) over the
#: ten Olden cold compiles, after a warm-up compile and ``gc.collect()``
#: (10 gen-0 counted; 79 gen-0 + 7 gen-1 = 86 at the default gen-0
#: threshold of 700, before a compile paced the collector).
COLLECTOR_PASSES = 12
#: Slack on a counted pin.
SLACK = 1.02
#: At most this share of the tokens the ten programs hold gets a
#: ``SourceLocation`` while they parse (6,179 for 11,828 tokens; one
#: per token before a location was built only for a token a node or
#: an error cites).
LOCATIONS_PER_TOKEN = 0.55

#: What the parser may call in ``frontend/lexer.py``: one ``tokenize``
#: and one ``Tokens`` constructor per program, and the literal decoder
#: (``_unquote`` per char or string literal, its ``<lambda>`` per
#: escape).  58,094 calls there with a token object per token.
LEXER_CALLS = {"tokenize", "__init__", "_unquote", "<lambda>"}

#: The run-time helpers emitted code calls in ``earth/codegen.py``.
CODEGEN_HELPERS = {"_op_div", "_op_mod", "_char_coerce", "_chkread",
                   "_ptr", "_sbuf", "_shchk", "_faddr"}

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != COUNTED_ON,
    reason="the pins were counted on CPython %d.%d" % COUNTED_ON)


def count_compile():
    """Call and line events over the ten Olden cold compiles, and the
    locations their parses build."""
    from repro.errors import SourceLocation
    from repro.frontend.lexer import tokenize
    from repro.frontend.parser import parse_program
    from repro.harness.pipeline import compile_earthc
    from repro.olden.loader import catalog

    facts = ("analysis/points_to.py", "analysis/rw_sets.py")
    lines = Counter()
    lexer_calls = Counter()
    package_calls = 0

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.endswith(facts):
            return None
        module = path.rsplit("/", 1)[-1]

        def count(frame, event, arg):
            if event == "line":
                lines[module] += 1
            return count
        return count

    def profiler(frame, event, arg):
        nonlocal package_calls
        path = frame.f_code.co_filename
        if event == "call" and "/repro/" in path:
            package_calls += 1
            if path.endswith("frontend/lexer.py"):
                lexer_calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    sys.settrace(tracer)
    for spec in catalog():
        compile_earthc(spec.source(), spec.filename, optimize=True,
                       inline=spec.inline)
    sys.settrace(None)
    sys.setprofile(None)

    location_init = SourceLocation.__init__.__code__
    locations = tokens = 0

    def count_locations(frame, event, arg):
        nonlocal locations
        if event == "call" and frame.f_code is location_init:
            locations += 1

    for spec in catalog():
        tokens += len(tokenize(spec.source(), spec.filename))
        sys.setprofile(count_locations)
        parse_program(spec.source(), spec.filename)
        sys.setprofile(None)
    return {"programs": len(catalog()), "package_calls": package_calls,
            "lexer_calls": dict(lexer_calls), "lines": dict(lines),
            "locations": locations, "tokens": tokens}


def count_simulate():
    """Calls from ``earth/machine.py`` over one ten-Olden round, then
    from ``earth/codegen.py`` over a second round of the same compiled
    programs, and whether the two rounds agree."""
    from repro.config import RunConfig
    from repro.harness.pipeline import compile_earthc, execute
    from repro.olden.loader import catalog

    runs = [(compile_earthc(spec.source(), spec.filename, optimize=True,
                            inline=spec.inline),
             RunConfig(nodes=4, args=spec.default_args,
                       max_stmts=spec.max_stmts))
            for spec in catalog()]

    def round_calls(module):
        calls = Counter()

        def profiler(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.endswith(module):
                calls[code.co_name] += 1

        sys.setprofile(profiler)
        records = []
        for compiled, config in runs:
            result = execute(compiled, config=config)
            records.append((result.value, result.output, result.time_ns,
                            result.stats.snapshot()))
        sys.setprofile(None)
        return calls, records

    machine, cold = round_calls("earth/machine.py")
    codegen, warm = round_calls("earth/codegen.py")
    return {"machine_calls": dict(machine),
            "warm_codegen_calls": dict(codegen),
            "warm_equals_cold": warm == cold}


def count_collections():
    """The collector's passes per generation over the ten Olden cold
    compiles."""
    from repro.harness.pipeline import compile_earthc
    from repro.olden.loader import catalog

    specs = catalog()
    compile_earthc(specs[0].source(), specs[0].filename, optimize=True,
                   inline=specs[0].inline)
    gc.collect()
    passes = Counter()

    def started(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    gc.callbacks.append(started)
    for spec in specs:
        compile_earthc(spec.source(), spec.filename, optimize=True,
                       inline=spec.inline)
    gc.callbacks.remove(started)
    return {"passes": dict(passes)}


def count_idle():
    """An idle two-worker pool after two echo jobs: the threads the
    process keeps, and the Python calls its collector thread makes over
    one idle second (each wake-up makes some)."""
    import threading
    import time

    from repro.service.jobs import JobSpec
    from repro.service.pool import WorkerPool

    idle = {"open": False, "calls": 0}

    def tracer(frame, event, arg):
        if idle["open"] \
                and threading.current_thread().name == "pool-collector":
            idle["calls"] += 1

    threading.settrace(tracer)
    with WorkerPool(workers=2, cache_dir=None) as pool:
        pool.run_batch([JobSpec("selftest",
                                selftest={"behavior": "echo", "value": n})
                        for n in range(2)], timeout=60)
        threads = sorted(thread.name for thread in threading.enumerate())
        idle["open"] = True
        time.sleep(1.0)
        idle["open"] = False
    threading.settrace(None)
    return {"threads": threads, "collector_calls": idle["calls"]}


COUNTERS = {"compile": count_compile, "simulate": count_simulate,
            "collect": count_collections, "idle": count_idle}


def _counted(name):
    """The counter ``name`` run in a fresh interpreter, with no
    coverage tracer started in it."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("COV_CORE_", "COVERAGE_"))}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, name], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def compile_counts():
    return _counted("compile")


@pytest.fixture(scope="module")
def simulate_counts():
    return _counted("simulate")


def test_the_parser_calls_the_lexer_once_per_program(compile_counts):
    calls = compile_counts["lexer_calls"]
    assert set(calls) <= LEXER_CALLS, calls
    assert calls["tokenize"] == compile_counts["programs"], calls
    assert calls["__init__"] == compile_counts["programs"], calls


def test_a_location_only_for_a_cited_token(compile_counts):
    assert compile_counts["locations"] \
        <= LOCATIONS_PER_TOKEN * compile_counts["tokens"], compile_counts


def test_cold_compile_call_events(compile_counts):
    assert compile_counts["package_calls"] <= COMPILE_CALLS * SLACK


def test_alias_fact_line_events(compile_counts):
    lines = compile_counts["lines"]
    assert lines["rw_sets.py"] <= RW_SETS_LINES * SLACK, lines
    assert sum(lines.values()) <= ALIAS_FACT_LINES * SLACK, lines


@pytest.fixture(scope="module")
def idle_counts():
    return _counted("idle")


def test_an_idle_pool_keeps_one_thread(idle_counts):
    """One pipe per worker: no queue feeder thread per worker used."""
    assert idle_counts["threads"] == ["MainThread", "pool-collector"]


def test_an_idle_pool_never_wakes(idle_counts):
    """The collector sleeps until a result, a death, a submission or a
    deadline; with nothing pending it has none (20 wake-ups a second
    when it polled a result queue)."""
    assert idle_counts["collector_calls"] == 0


@pytest.mark.ci_only
def test_a_compile_paces_the_collector():
    passes = _counted("collect")["passes"]
    assert sum(passes.values()) <= COLLECTOR_PASSES, passes


@pytest.mark.ci_only
def test_no_closure_per_leg(simulate_counts):
    calls = simulate_counts["machine_calls"]
    assert "<lambda>" not in calls, calls["<lambda>"]
    assert sum(calls.values()) <= MACHINE_CALLS * SLACK


@pytest.mark.ci_only
def test_a_warm_round_binds_what_the_cold_round_emitted(simulate_counts):
    assert simulate_counts["warm_equals_cold"]
    calls = simulate_counts["warm_codegen_calls"]
    emitter = sum(count for name, count in calls.items()
                  if name not in CODEGEN_HELPERS)
    assert emitter <= WARM_EMITTER_CALLS, calls


if __name__ == "__main__":
    print(json.dumps(COUNTERS[sys.argv[1]]()))
