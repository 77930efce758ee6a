"""Each selection phase places only the direction it reads.

The optimizer's read phase runs the RemoteReads analysis alone and its
write phase runs RemoteWrites alone.  Every such run the optimizer
makes -- the ten Olden programs and 60 generated ones, under both
presets -- is checked here against one both-direction
``analyze_placement`` of the same function and facts: the phase's
table (``reads_before`` or ``writes_after``) must be equal tuple for
tuple, and the two one-direction runs must count what the
both-direction run counts.
"""

import random

import pytest

from repro.comm import optimizer as optimizer_module
from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.comm.placement import (
    READ,
    WRITE,
    PlacementAnalysis,
    analyze_placement,
)
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.workload import MIXES, SHAPES, generate_source


def _table(annotations):
    return {label: [(t.key, t.freq, t.dlist) for t in tuples]
            for label, tuples in annotations.items()}


@pytest.fixture
def checked(monkeypatch):
    """``(function, direction)`` of every placement the optimizer runs,
    each compared with a both-direction run as it happens."""
    seen = []

    class Checked(PlacementAnalysis):
        def run(self, *directions):
            assert directions in ((READ,), (WRITE,)), directions
            result = super().run(*directions)
            both = analyze_placement(self.func, self.conn)
            other = PlacementAnalysis(self.func, self.conn).run(
                WRITE if directions == (READ,) else READ)
            if directions == (READ,):
                assert _table(result.reads_before) == \
                    _table(both.reads_before)
                assert not result.writes_after
            else:
                assert _table(result.writes_after) == \
                    _table(both.writes_after)
                assert not result.reads_before
            assert result.tuples_generated + other.tuples_generated \
                == both.tuples_generated
            assert result.tuples_killed + other.tuples_killed \
                == both.tuples_killed
            seen.append((self.func.name, directions[0]))
            return result
    monkeypatch.setattr(optimizer_module, "PlacementAnalysis", Checked)
    return seen


def _assert_one_run_per_function_per_phase(seen, compiled):
    functions = sorted(compiled.simple.functions)
    assert sorted(name for name, d in seen if d == READ) == functions
    assert sorted(name for name, d in seen if d == WRITE) == functions


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_directions(checked, spec, preset):
    compiled = compile_earthc(spec.source(), spec.filename, optimize=True,
                              inline=spec.inline,
                              config=CommConfig(opt=preset))
    _assert_one_run_per_function_per_phase(checked, compiled)


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("seed", range(60))
def test_generated_directions(checked, seed, preset):
    rng = random.Random(f"placement-directions-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    compiled = compile_earthc(generate_source(rng, shape, mix),
                              optimize=True, config=CommConfig(opt=preset))
    _assert_one_run_per_function_per_phase(checked, compiled)

