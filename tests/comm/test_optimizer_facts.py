"""The optimizer keeps one ``ConnectionInfo`` and solves it again only
after a phase that rewrote something.

Two things make that safe, and both are pinned here: the facts are a
function of the statements alone, and a phase's rewrite count is zero
only if it left every statement as it was (``print_program`` text
unchanged) -- so facts are never read that are older than a statement.
"""

import random

import pytest

from repro.comm import optimizer as optimizer_module
from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig, CommunicationOptimizer
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.simple.printer import print_program
from repro.workload import MIXES, SHAPES, generate_source


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
    """``(rewrite count, listing before, listing after)`` of every phase
    that reports one: the listing is taken when the phase asks for its
    facts and when it reports."""
    seen = []
    before = []
    real_facts = CommunicationOptimizer._facts
    real_rewrote = CommunicationOptimizer._rewrote

    def facts(self):
        before.append(print_program(self.program))
        return real_facts(self)

    def rewrote(self, count):
        seen.append((count, before[-1], print_program(self.program)))
        real_rewrote(self, count)
    monkeypatch.setattr(CommunicationOptimizer, "_facts", facts)
    monkeypatch.setattr(CommunicationOptimizer, "_rewrote", rewrote)
    return seen


def _olden(name, preset="legacy"):
    spec = next(spec for spec in catalog() if spec.name == name)
    return compile_earthc(spec.source(), spec.filename, optimize=True,
                          inline=spec.inline,
                          config=CommConfig(opt=preset))


def _rewrites(report):
    """Per consumer of the facts, in order, what it rewrote."""
    counters = report.pass_counters()
    return [
        report.total_forwarded(),
        counters["pipelined_reads"] + counters["blocked_read_groups"]
        + counters["redundant_reads_merged"],
        counters["pipelined_writes"] + counters["blocked_write_groups"],
    ]


@pytest.mark.parametrize("name,expected", [("treeadd", 2), ("power", 3)])
def test_solves_on_two_known_programs(solves, name, expected):
    """treeadd forwards nothing, so its reads phase reuses forwarding's
    facts; power rewrites in every phase."""
    _olden(name)
    assert len(solves) == expected


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_one_solve_plus_one_per_rewrite_another_phase_reads(
        solves, spec, preset):
    counts = _rewrites(_olden(spec.name, preset).report)
    assert len(solves) == 1 + sum(bool(count) for count in counts[:-1])
    # ... and each solve saw a program no earlier solve saw.
    assert len(set(solves)) == len(solves)


@pytest.mark.parametrize("preset", OPT_PRESETS)
def test_the_ten_olden_programs_take_25_solves(solves, preset):
    """Thirty before: perimeter, voronoi, em3d, mst and treeadd forward
    nothing.  The presets differ only in what selection blocks, so they
    solve as often.  CI asserts the same number under a profiler."""
    for spec in catalog():
        _olden(spec.name, preset)
    assert len(solves) == 25


def _assert_counts_are_truthful(phases):
    assert len(phases) >= 3
    for count, before, after in phases:
        assert (count == 0) == (before == after), count


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_a_zero_rewrite_count_means_the_listing_did_not_move(
        phases, spec, preset):
    _olden(spec.name, preset)
    _assert_counts_are_truthful(phases)


@pytest.mark.parametrize("seed", range(60))
def test_a_zero_rewrite_count_means_it_on_generated_programs(phases, seed):
    rng = random.Random(f"optimizer-facts-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    compile_earthc(generate_source(rng, shape, mix), optimize=True,
                   config=CommConfig(opt=OPT_PRESETS[seed % len(OPT_PRESETS)]))
    _assert_counts_are_truthful(phases)


def test_some_phase_rewrites_nothing_and_some_phase_does(phases):
    """Both arms of the rule run on the Olden programs."""
    for spec in catalog():
        _olden(spec.name)
    counts = [count for count, _, _ in phases]
    assert 0 in counts and any(counts)


def test_a_reported_rewrite_forces_a_solve_and_zero_does_not(solves):
    program = compile_earthc("int main() { return 7; }").simple
    optimizer = CommunicationOptimizer(program)
    first = optimizer._facts()
    optimizer._rewrote(0)
    assert optimizer._facts() is first and len(solves) == 1
    optimizer._rewrote(1)
    second = optimizer._facts()
    assert second is not first and len(solves) == 2
    assert optimizer._facts() is second and len(solves) == 2
