"""The alias facts equal those of a plain reference implementation.

``analysis/points_to.py`` solves with difference propagation over a
worklist and a per-object field index; ``analysis/rw_sets.py`` builds a
function's summary as one union and merges by containment.  Kept here
as the reference are the simpler forms they replaced:

* a round-robin solver that re-applies every constraint until a whole
  pass changes nothing and finds an object's fields by scanning every
  holder (it shares only the constraint collection walk);
* effects aggregated one ``merge`` per statement and per child, each
  merge adding every ``(base, loc, key)`` record one at a time and
  anonymizing every imported one.

Every solve the optimizer makes (spied on ``analyze_connection``) over
the ten Olden programs under both presets, 60 generated programs and
the global-pointer programs is solved both ways on a copy of the
program as it stood, and the points-to sets, every statement's
effects and every function summary must be equal.
"""

import copy
import random

import pytest

from repro.analysis.points_to import PointsToAnalysis, keys_overlap
from repro.analysis.rw_sets import Effects, EffectsAnalysis
from repro.comm import optimizer as optimizer_module
from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.simple import nodes as s
from repro.workload import MIXES, SHAPES, generate_source
from tests.comm.test_global_pointers import PROGRAMS


class ReferencePointsTo(PointsToAnalysis):
    """The round-robin solver, with a blkmov endpoint resolved through
    ``_var_holder`` like every other pointer."""

    def __init__(self, program):
        super().__init__(program)
        self._copy_edges = {}
        self._field_loads = []
        self._field_stores = []
        self._ref_copies = []

    def _base_points(self, holder):
        return self._sets.setdefault(holder, set())

    def _add_copy(self, src, dst):
        self._copy_edges.setdefault(src, set()).add(dst)

    def _add_load(self, func, base, dst, key):
        self._field_loads.append((self._var_holder(func, base), dst, key))

    def _add_store(self, func, base, rhs, key):
        self._field_stores.append((self._var_holder(func, base),
                                   self._rhs_source(func, rhs), key))

    def _collect_blkmov(self, func, stmt):
        self._ref_copies.append((func, stmt.src, stmt.dst))

    def _union_into(self, dst, src_set):
        dst_set = self._base_points(dst)
        before = len(dst_set)
        dst_set |= src_set
        return len(dst_set) != before

    def _solve(self):
        changed = True
        while changed:
            changed = False
            for src, dsts in self._copy_edges.items():
                src_set = self._base_points(src)
                if not src_set:
                    continue
                for dst in dsts:
                    changed |= self._union_into(dst, src_set)
            for base, dst, key in self._field_loads:
                for loc in list(self._base_points(base)):
                    for stored, src_set in list(self._object_fields(loc)):
                        if src_set and keys_overlap(key, stored):
                            changed |= self._union_into(dst, src_set)
            for base, source, key in self._field_stores:
                if source is None or not self._base_points(source):
                    continue
                src_set = self._base_points(source)
                for loc in list(self._base_points(base)):
                    changed |= self._union_into((loc, key), src_set)
            for func, src_ep, dst_ep in self._ref_copies:
                dst_objs = self._ref_endpoint(func, dst_ep)
                for src_obj in self._ref_endpoint(func, src_ep):
                    for key, src_set in list(self._object_fields(src_obj)):
                        if not src_set:
                            continue
                        for dst_obj in dst_objs:
                            changed |= self._union_into((dst_obj, key),
                                                        src_set)

    def _object_fields(self, obj):
        for holder, pts in self._sets.items():
            if len(holder) == 2 and holder[0] == obj:
                yield holder[1], pts

    def _ref_endpoint(self, func, endpoint):
        kind, name, _offset = endpoint
        if kind == "local":
            return {("structvar", func.name, name)}
        return set(self._base_points(self._var_holder(func, name)))


def _merge(into, other, drop_locals_of=None, anonymize=False):
    """Union ``other`` into ``into`` one record at a time, every
    imported one anonymized afresh; True when ``into`` grew."""
    before = _size(into)
    var_writes = other.var_writes
    if drop_locals_of is not None:
        var_writes = var_writes - drop_locals_of
    into.var_writes |= var_writes
    for mine, theirs in ((into.heap_reads, other.heap_reads),
                         (into.heap_writes, other.heap_writes)):
        for base, loc, key in theirs:
            mine.add((None if anonymize else base, loc, key))
    return _size(into) != before


def _size(effects):
    return (len(effects.var_writes) + len(effects.heap_reads)
            + len(effects.heap_writes))


class ReferenceEffects(EffectsAnalysis):
    """Summaries and compound statements one merge at a time."""

    def _compute_summaries(self):
        functions = self.program.functions
        call_sites = []
        callers = {name: [] for name in functions}
        locals_of = {name: set(func.variables)
                     for name, func in functions.items()}
        for name, func in functions.items():
            summary = self._summaries[name] = Effects()
            for stmt in func.body.basic_stmts():
                own = self._table[name, stmt.label] = \
                    self._basic_effects(func, stmt)
                _merge(summary, own, drop_locals_of=locals_of[name],
                       anonymize=True)
                if isinstance(stmt, s.CallStmt) and stmt.func in functions:
                    call_sites.append((own, stmt))
                    if name not in callers[stmt.func]:
                        callers[stmt.func].append(name)
        grown = list(functions)
        while grown:
            callee = grown.pop()
            for caller in callers[callee]:
                if _merge(self._summaries[caller], self._summaries[callee],
                          drop_locals_of=locals_of[caller], anonymize=True):
                    grown.append(caller)
        for own, stmt in call_sites:
            _merge(own, self._summaries[stmt.func], anonymize=True)

    def _stmt_effects(self, func, stmt):
        if isinstance(stmt, s.BasicStmt):
            effects = self._basic_effects(func, stmt)
            if isinstance(stmt, s.CallStmt) and stmt.func in self._summaries:
                _merge(effects, self._summaries[stmt.func], anonymize=True)
            return effects
        effects = Effects()
        for child in stmt.children():
            _merge(effects, self.effects(func, child))
        return effects


def _facts(analysis):
    """An analysis's solved sets, without the empty entries the
    round-robin solver leaves behind."""
    result = analysis.run()
    sets = {holder: locs for holder, locs in analysis._sets.items() if locs}
    return result, sets


def _effects_view(effects):
    for records in (effects.heap_reads, effects.heap_writes):
        assert isinstance(records, set)
        assert all(len(record) == 3 for record in records)
    return effects.var_writes, effects.heap_reads, effects.heap_writes


def assert_same_facts(program):
    """Solve ``program`` both ways and compare everything."""
    result, sets = _facts(PointsToAnalysis(program))
    ref_result, ref_sets = _facts(ReferencePointsTo(program))
    assert sets == ref_sets
    effects = EffectsAnalysis(program, result)
    reference = ReferenceEffects(program, ref_result)
    for func in program.functions.values():
        assert _effects_view(effects.summary(func.name)) == \
            _effects_view(reference.summary(func.name)), func.name
        for stmt in func.body.walk():
            assert _effects_view(effects.effects(func, stmt)) == \
                _effects_view(reference.effects(func, stmt)), \
                (func.name, stmt.label)


@pytest.fixture
def compared(monkeypatch):
    """Every solve the optimizer makes, checked against the reference
    on a copy of the program (the optimizer's own facts are untouched)."""
    seen = []
    real = optimizer_module.analyze_connection

    def spy(program):
        assert_same_facts(copy.deepcopy(program))
        seen.append(program)
        return real(program)
    monkeypatch.setattr(optimizer_module, "analyze_connection", spy)
    return seen


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_solves(compared, spec, preset):
    compile_earthc(spec.source(), spec.filename, optimize=True,
                   inline=spec.inline,
                   config=CommConfig(opt=preset))
    assert compared


@pytest.mark.parametrize("seed", range(60))
def test_generated_solves(compared, seed):
    rng = random.Random(f"alias-reference-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    compile_earthc(generate_source(rng, shape, mix), optimize=True,
                   config=CommConfig(opt=OPT_PRESETS[seed % len(OPT_PRESETS)]))
    assert compared


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_global_pointer_solves(compared, name, preset):
    compile_earthc(PROGRAMS[name][0], f"{name}.ec", optimize=True,
                   config=CommConfig(opt=preset))
    assert compared

