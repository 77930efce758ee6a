"""Property tests for the seeded workload generator.

:mod:`repro.workload` feeds synthetic programs into every layer of the
stack (CLI batch, HTTP gateway soak, differential suites), so its
output contract is load-bearing and gets pinned here:

* generation is byte-deterministic per seed;
* every generated program parses, compiles (optimizer on), and runs
  on the codegen engine;
* program values are independent of the machine size (1 node vs N);
* the engines agree bit-for-bit on every generated job,
  including its drawn fault plan and remote-cache capacity.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.workload import (
    MIXES,
    SHAPES,
    generate_jobs,
    generate_source,
)

seeds = st.integers(0, 10_000)

#: Fully heterogeneous pools: every knob the generator exposes.
HETERO = dict(engines=ENGINES,
              nodes=(1, 2, 4),
              fault_profiles=(None, "lossy", "jittery"),
              rcache_capacities=(0, 16),
              sizes=(3, 6), sweeps=(1, 2))


def _one_job(seed):
    return generate_jobs(seed, 1, **HETERO)[0]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@given(seeds)
def test_generation_is_byte_deterministic(seed):
    first = generate_jobs(seed, 5, **HETERO)
    second = generate_jobs(seed, 5, **HETERO)
    assert [job.to_dict() for job in first] \
        == [job.to_dict() for job in second]
    assert [job.source for job in first] \
        == [job.source for job in second]


def test_job_names_are_unique_and_seed_stamped():
    jobs = generate_jobs(99, 20)
    names = [job.name for job in jobs]
    assert len(set(names)) == len(names)
    assert all(name.startswith("gen-99-") for name in names)


# ---------------------------------------------------------------------------
# Validity: parse, compile, run on the codegen engine
# ---------------------------------------------------------------------------


@given(seeds, st.sampled_from(SHAPES), st.sampled_from(sorted(MIXES)))
def test_generated_programs_compile_and_run_fully_codegenned(
        seed, shape, mix):
    source = generate_source(random.Random(seed), shape, mix)
    compiled = compile_earthc(source, f"{shape}.ec", optimize=True)
    result = execute(compiled, config=RunConfig(nodes=2, args=(3, 1),
                                                engine="codegen"))
    assert isinstance(result.value, int)


# ---------------------------------------------------------------------------
# Machine-size independence and engine agreement
# ---------------------------------------------------------------------------


@given(seeds)
def test_value_independent_of_machine_size(seed):
    job = _one_job(seed)
    compiled = compile_earthc(job.source, job.filename, optimize=True)
    solo = execute(compiled, config=RunConfig(nodes=1,
                                              args=tuple(job.args)))
    many = execute(compiled, config=RunConfig(nodes=4,
                                              args=tuple(job.args)))
    assert solo.value == many.value
    assert solo.output == many.output


@given(seeds)
def test_engines_agree_on_generated_jobs(seed):
    """Bit-identity across the engines under the job's own
    drawn configuration -- fault plan and rcache capacity included."""
    job = _one_job(seed)
    compiled = compile_earthc(job.source, job.filename, optimize=True)
    results = {}
    for engine in ENGINES:
        results[engine] = execute(
            compiled,
            config=job.run.replace(args=tuple(job.args), engine=engine))
    ast = results["ast"]
    for engine, result in results.items():
        assert result.value == ast.value, engine
        assert result.output == ast.output, engine
        assert result.time_ns == ast.time_ns, engine
        assert result.stats.snapshot() == ast.stats.snapshot(), engine


@given(seeds)
def test_optimizer_preserves_generated_results(seed):
    """The communication optimizer must not change what a generated
    program computes, only how much it talks."""
    job = _one_job(seed)
    plain = compile_earthc(job.source, job.filename, optimize=False)
    opt = compile_earthc(job.source, job.filename, optimize=True)
    config = RunConfig(nodes=job.run.nodes, args=tuple(job.args))
    before = execute(plain, config=config)
    after = execute(opt, config=config)
    assert before.value == after.value
    assert before.output == after.output
    # The optimizer's contract is about *messages*: it may trade many
    # remote reads for one blkmov plus extra local buffer traffic
    # (which total_comm_ops would count against it), but the number of
    # operations that cross the network must never grow.
    assert after.stats.total_remote_ops <= before.stats.total_remote_ops
