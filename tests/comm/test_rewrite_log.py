"""The optimizer's log accounts for every statement it changed.

``OptimizationReport.log`` holds one record per rewrite of forwarding
and selection.  Over every compile checked here:

* the labels the optimizer added are exactly the union of the records'
  ``emitted`` labels, no label is emitted twice, and no statement of
  the program it was given is gone;
* every ``consumed`` label is an origin statement of that program, and
  still in the optimized one;
* the forwarding and in-place rules emit nothing, the others one
  statement each;
* the counters derived from the log are the compile payload's pass
  counters.

Tier 1 checks the ten Olden programs and 60 generated ones under both
presets; the ``ci_only`` tier the 600 programs of the compile corpus
(``tests/integration/test_compile_golden.py``) under both presets.
"""

import random

import pytest

from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.service.jobs import compile_payload
from repro.workload import MIXES, SHAPES, generate_source
from tests.integration.test_compile_golden import corpus

EMITS_NOTHING = {"forward-load", "forward-store", "in-place-read",
                 "in-place-write"}
EMITS_ONE = {"pipeline-read", "block-read", "pipeline-write",
             "block-write"}


def _labels(compiled):
    return {stmt.label for function in compiled.simple.functions.values()
            for stmt in function.body.walk()}


def assert_log_covers(source, filename, inline, preset):
    """Compile ``source`` with and without the optimizer and hold the
    optimized compile's log to the difference."""
    before = _labels(compile_earthc(source, filename, inline=inline))
    compiled = compile_earthc(source, filename, optimize=True,
                              inline=inline, config=CommConfig(opt=preset))
    after = _labels(compiled)
    log = compiled.report.log

    emitted = [label for record in log for label in record.emitted]
    assert len(emitted) == len(set(emitted)), "a label emitted twice"
    assert after - before == set(emitted)
    assert before <= after, "the optimizer removed a statement"
    for record in log:
        assert record.rule in EMITS_NOTHING | EMITS_ONE, record
        assert set(record.consumed) <= before, record
        assert len(record.emitted) == (record.rule in EMITS_ONE), record

    pass_counters = compile_payload(compiled)["optimizer"]["pass_counters"]
    for name, value in compiled.report.counters().items():
        assert pass_counters[name] == value, name
    return len(emitted)


def _generated(seed):
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    return generate_source(random.Random(f"rewrite-log-{seed}"), shape, mix)


@pytest.mark.parametrize("preset", OPT_PRESETS)
def test_the_olden_logs_cover_what_the_optimizer_did(preset):
    inserted = sum(assert_log_covers(spec.source(), spec.filename,
                                     spec.inline, preset)
                   for spec in catalog())
    if preset == "legacy":
        # Every pipelined or blocked read and write of the suite.
        assert inserted == 201


@pytest.mark.parametrize("preset", OPT_PRESETS)
def test_the_generated_logs_cover_what_the_optimizer_did(preset):
    for seed in range(60):
        assert_log_covers(_generated(seed), f"gen-{seed}.ec", False, preset)


@pytest.mark.ci_only
@pytest.mark.parametrize("preset", OPT_PRESETS)
def test_the_corpus_logs_cover_what_the_optimizer_did(preset):
    for name, source in corpus():
        assert_log_covers(source, f"{name}.ec", False, preset)
