"""The optimizer solves the alias facts once, and again before the
write phase iff the read phase rewrote something.

Three things make that safe, and all are pinned here:

* forwarding's facts cover the program it leaves: a fresh solve after
  forwarding has the same points-to sets, every statement's effects are
  a subset of those forwarding read, and no statement is new -- so the
  read phase may judge by them;
* the read phase's rewrite count is zero only if it left every
  statement as it was (``print_program`` text unchanged) -- so the
  write phase never reads facts older than a statement;
* the read phase's facts are *not* reused by the write phase after it
  rewrote: its comm reads and blkmovs must kill write sinking.
"""

import contextlib
import random

import pytest

from repro.comm import optimizer as optimizer_module
from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.simple.printer import print_program
from repro.workload import MIXES, SHAPES, generate_source

READS = "place/select reads"


@pytest.fixture
def solves(monkeypatch):
    """Every ``analyze_connection`` the optimizer makes."""
    seen = []
    real = optimizer_module.analyze_connection

    def spy(program):
        seen.append(print_program(program))
        return real(program)
    monkeypatch.setattr(optimizer_module, "analyze_connection", spy)
    return seen


@pytest.fixture
def phases(monkeypatch):
    """``{pass name: (listing before, listing after)}`` of every
    optimizer pass of the last compile."""
    seen = {}
    real = optimizer_module.timed_pass

    @contextlib.contextmanager
    def spy(sink, name):
        program = optimizer.program
        before = print_program(program)
        with real(sink, name) as profile:
            yield profile
        seen[name] = (before, print_program(program))

    optimizer = None
    real_run = optimizer_module.CommunicationOptimizer.run

    def run(self):
        nonlocal optimizer
        optimizer = self
        return real_run(self)
    monkeypatch.setattr(optimizer_module, "timed_pass", spy)
    monkeypatch.setattr(optimizer_module.CommunicationOptimizer, "run", run)
    return seen


def _olden(name, preset="legacy"):
    spec = next(spec for spec in catalog() if spec.name == name)
    return compile_earthc(spec.source(), spec.filename, optimize=True,
                          inline=spec.inline,
                          config=CommConfig(opt=preset))


def _generated(seed):
    rng = random.Random(f"optimizer-facts-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    return compile_earthc(
        generate_source(rng, shape, mix), optimize=True,
        config=CommConfig(opt=OPT_PRESETS[seed % len(OPT_PRESETS)]))


def _reads_rewrote(report):
    counters = report.pass_counters()
    return counters["pipelined_reads"] + counters["blocked_read_groups"] \
        + counters["redundant_reads_merged"]


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_one_solve_plus_one_before_writes_iff_reads_rewrote(
        solves, spec, preset):
    report = _olden(spec.name, preset).report
    assert len(solves) == 1 + bool(_reads_rewrote(report))
    # ... and each solve saw a program no earlier solve saw.
    assert len(set(solves)) == len(solves)


@pytest.mark.parametrize("preset", OPT_PRESETS)
def test_the_ten_olden_programs_take_20_solves(solves, preset):
    """30 when every phase solved, 25 when forwarding's rewrites were
    solved again.  The presets differ only in what selection blocks,
    so they solve as often."""
    for spec in catalog():
        _olden(spec.name, preset)
    assert len(solves) == 20


def test_a_program_without_forwarding_solves_for_placement(solves):
    spec = next(spec for spec in catalog() if spec.name == "power")
    compile_earthc(spec.source(), spec.filename, optimize=True,
                   inline=spec.inline,
                   config=CommConfig(enable_forwarding=False))
    assert len(solves) == 2


def _assert_reads_count_is_truthful(phases, report):
    before, after = phases[READS]
    assert (_reads_rewrote(report) == 0) == (before == after)


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_a_zero_reads_count_means_the_listing_did_not_move(
        phases, spec, preset):
    _assert_reads_count_is_truthful(phases, _olden(spec.name, preset).report)


@pytest.mark.parametrize("seed", range(60))
def test_a_zero_reads_count_means_it_on_generated_programs(phases, seed):
    _assert_reads_count_is_truthful(phases, _generated(seed).report)


def test_a_reads_phase_that_rewrote_nothing_leaves_one_solve(
        solves, phases):
    """Every Olden and generated program above pipelines a read; this
    one only writes, so its writes phase reuses the first solve."""
    compiled = compile_earthc("""
        struct node { int v; int w; };
        int poke(struct node *p) { p->v = 1; p->w = 2; return 0; }
        int main() { return 0; }
    """, optimize=True)
    assert _reads_rewrote(compiled.report) == 0
    _assert_reads_count_is_truthful(phases, compiled.report)
    assert len(solves) == 1
    assert compiled.report.pass_counters()["pipelined_writes"]


# -- forwarding's facts cover the program it leaves ---------------------


@pytest.fixture
def covered(monkeypatch):
    """When a forwarding pass is done, a fresh solve of what it left is
    compared with the facts it read; returns what each function's
    forwarding rewrote."""
    rewrote = []
    real_solve = optimizer_module.analyze_connection
    real_forward = optimizer_module.forward_remote_values
    labels = {}

    def solve(program):
        conn = real_solve(program)
        labels[conn] = {(func.name, stmt.label)
                        for func in program.functions.values()
                        for stmt in func.body.walk()}
        return conn

    def forward(function, conn, log):
        before = len(log)
        real_forward(function, conn, log)
        rewrote.append(len(log) - before)
        if function is list(conn.program.functions.values())[-1]:
            _assert_covers(conn, labels[conn], real_solve(conn.program))
    monkeypatch.setattr(optimizer_module, "analyze_connection", solve)
    monkeypatch.setattr(optimizer_module, "forward_remote_values", forward)
    return rewrote


def _assert_covers(old, labels, fresh):
    assert fresh.pts._sets == old.pts._sets
    for func in fresh.program.functions.values():
        for stmt in func.body.walk():
            assert (func.name, stmt.label) in labels
            mine = old.effects.effects(func, stmt)
            now = fresh.effects.effects(func, stmt)
            assert now.var_writes <= mine.var_writes, stmt.label
            assert now.heap_reads <= mine.heap_reads, stmt.label
            assert now.heap_writes <= mine.heap_writes, stmt.label


@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_forwarding_facts_cover_an_olden_program(covered, spec):
    _olden(spec.name)
    assert covered


@pytest.mark.parametrize("seed", range(60))
def test_forwarding_facts_cover_a_generated_program(covered, seed):
    _generated(seed)
    assert covered


def test_forwarding_rewrites_some_of_the_covered_programs(covered):
    for spec in catalog():
        _olden(spec.name)
    assert any(covered) and 0 in covered
