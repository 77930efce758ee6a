"""Property-based semantic tests (hypothesis).

* Random scalar programs (ifs, bounded loops, break/continue) agree
  with a CPython oracle -- this exercises the lexer, parser, goto
  elimination, simplifier and interpreter end-to-end.
* Random heap programs (distributed allocation, field traffic, struct
  copies, list walks) produce identical results unoptimized vs fully
  optimized, across machine sizes -- the core safety property of the
  paper's transformations.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.comm.optimizer import CommConfig
from repro.harness.pipeline import compile_earthc
from repro.harness.pipeline import execute as _execute
from repro.config import RunConfig


def execute(compiled, config=None, **kwargs):
    """Budget-capped execution: a generator bug that produces a runaway
    program should fail the example fast, not stall the suite."""
    config = config or RunConfig()
    if config.max_stmts == RunConfig().max_stmts:
        config = config.replace(max_stmts=2_000_000)
    return _execute(compiled, config=config, **kwargs)
from tests.property.gen_programs import (
    heap_programs,
    run_python_oracle,
    scalar_programs,
)

FAST = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Heap programs run a full optimizing compile plus simulated execution
#: per example (and some properties do five of them), so their budgets
#: are small; the scalar oracle tests above carry the example volume.
HEAVY = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(scalar_programs())
def test_scalar_programs_match_python_oracle(pair):
    source_c, source_p = pair
    expected = run_python_oracle(source_p)
    compiled = compile_earthc(source_c)
    assert execute(compiled).value == expected


@FAST
@given(scalar_programs())
def test_scalar_programs_unchanged_by_optimizer(pair):
    source_c, source_p = pair
    expected = run_python_oracle(source_p)
    compiled = compile_earthc(source_c, optimize=True)
    assert execute(compiled).value == expected


@HEAVY
@given(heap_programs())
def test_optimizer_preserves_heap_program_results(source):
    plain = execute(compile_earthc(source), config=RunConfig(nodes=3))
    optimized = execute(compile_earthc(source, optimize=True),
                        config=RunConfig(nodes=3))
    assert optimized.value == plain.value


@HEAVY
@given(heap_programs())
def test_results_independent_of_node_count(source):
    values = set()
    for nodes in (1, 3):
        compiled = compile_earthc(source, optimize=True)
        values.add(execute(compiled, config=RunConfig(nodes=nodes)).value)
    assert len(values) == 1


@HEAVY
@given(heap_programs())
def test_each_pass_is_individually_safe(source):
    reference = execute(compile_earthc(source),
                        config=RunConfig(nodes=3)).value
    for config in (
        CommConfig(enable_forwarding=False),
        CommConfig(enable_placement=False),
        CommConfig(enable_blocking=False),
    ):
        compiled = compile_earthc(source, optimize=True, config=config)
        assert execute(compiled, config=RunConfig(nodes=3)).value == reference


@HEAVY
@given(heap_programs())
def test_optimizer_never_increases_comm_ops(source):
    plain = execute(compile_earthc(source), config=RunConfig(nodes=3))
    optimized = execute(compile_earthc(source, optimize=True),
                        config=RunConfig(nodes=3))
    assert optimized.stats.total_comm_ops <= plain.stats.total_comm_ops
