"""The unified RunConfig surface.

One options object drives the CLI, ``execute``, the three/four-way
harness, and the service job executor.  These tests pin the value-object
contract (validation, JSON round-trip, digest stability), the removal of
the old loose kwargs, and the stable public names exported from
:mod:`repro`.
"""

import argparse
import json

import pytest

import repro
from repro.comm.optimizer import CommConfig
from repro.config import (
    DEFAULT_MAX_STMTS,
    PARAMS_PRESETS,
    RunConfig,
    config_digest,
)
from repro.earth.faults import FaultPlan
from repro.earth.interpreter import DEFAULT_ENGINE, ENGINES
from repro.errors import ReproError, UsageError
from repro.harness import pipeline
from repro.harness.pipeline import (
    compile_earthc,
    compile_source,
    execute,
    run,
    run_three_ways,
)
from repro.olden.loader import get_benchmark

SOURCE = """
int main()
{
    int *p;
    int x;
    p = (int *) malloc(sizeof(int)) @ 1;
    *p = 21;
    x = *p;
    return x + x;
}
"""


@pytest.fixture(scope="module")
def compiled():
    return compile_earthc(SOURCE, optimize=False)


class TestValueObject:
    def test_defaults(self):
        config = RunConfig()
        assert config.nodes == 1
        assert config.entry == "main"
        assert config.engine == DEFAULT_ENGINE
        assert config.rcache_capacity == 0
        assert config.max_stmts == DEFAULT_MAX_STMTS
        assert config.faults is None

    def test_frozen_and_hashable_by_value(self):
        a = RunConfig(nodes=4, args=(2, 3))
        b = RunConfig(nodes=4, args=(2, 3))
        assert a == b and hash(a) == hash(b)
        with pytest.raises(dataclasses_frozen_error()):
            a.nodes = 8

    def test_args_coerced_to_tuple(self):
        assert RunConfig(args=[1, 2]).args == (1, 2)

    @pytest.mark.parametrize("bad", [
        dict(nodes=0),
        dict(engine="jit"),
        dict(params="turbo"),
        dict(rcache_capacity=-1),
        dict(rcache_line_words=0),
        dict(max_stmts=0),
        dict(trace_capacity=0),
        dict(faults={"seed": 1, "warp_factor": 9}),
        dict(strict_nil_reads="no"),
        dict(strict_nil_reads=1),
        dict(trace="no"),
        dict(trace=1),
        dict(faults={"seed": "3"}),
        dict(faults={"seed": 3.7}),
        dict(faults={"seed": 1, "drop_prob": "0.1"}),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ReproError):
            RunConfig(**bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_args_are_a_usage_error(self, bad, compiled):
        with pytest.raises(UsageError, match="args must be finite"):
            RunConfig(args=[4, bad])
        with pytest.raises(UsageError, match="args must be finite"):
            execute(compiled, config=RunConfig.from_json({"args": [bad]}))

    @pytest.mark.parametrize("bad", [2**31, -2**31 - 1, 10**400,
                                     10**5000],
                             ids=["2**31", "-2**31-1", "1e400", "1e5000"])
    def test_out_of_range_int_args_are_a_usage_error(self, bad, compiled):
        """An int argument is a C int; 10**5000 has no repr, so the
        refusal does not echo it."""
        with pytest.raises(UsageError, match="args must be 32-bit ints"):
            RunConfig(args=[4, bad])
        with pytest.raises(UsageError, match="args must be 32-bit ints"):
            execute(compiled, config=RunConfig.from_json({"args": [bad]}))

    def test_c_int_range_ends_and_large_floats_are_kept(self):
        """Floats stay as they are: their conversion is the engine's."""
        assert RunConfig(args=[2**31 - 1, -2**31, 1e12]).args \
            == (2**31 - 1, -2**31, 1e12)

    def test_replace_revalidates(self):
        config = RunConfig(nodes=4)
        assert config.replace(nodes=2).nodes == 2
        assert config.nodes == 4  # original untouched
        with pytest.raises(ReproError):
            config.replace(engine="jit")

    def test_machine_params_applies_rcache_geometry(self):
        params = RunConfig(rcache_capacity=32,
                           rcache_line_words=8).machine_params()
        assert params.rcache_capacity == 32
        assert params.rcache_line_words == 8
        seq = RunConfig(params="sequential-c").machine_params()
        assert seq.ctx_switch_ns == 0.0 and seq.spawn_ns == 0.0

    def test_fault_plan_mints_fresh_plans(self):
        spec = FaultPlan.from_profile("mild", 3).spec()
        config = RunConfig(faults=spec)
        assert config.fault_plan() is not config.fault_plan()
        assert RunConfig().fault_plan() is None

    def test_engines_and_presets_constants(self):
        assert ENGINES == ("codegen", "ast")
        assert DEFAULT_ENGINE in ENGINES
        assert "default" in PARAMS_PRESETS


class TestSerialization:
    def test_json_round_trip(self):
        config = RunConfig(nodes=4, args=(10, 2.5), engine="ast",
                           rcache_capacity=64,
                           faults=FaultPlan.from_profile("mild", 1).spec(),
                           trace=True, trace_capacity=100)
        blob = json.dumps(config.to_json(), sort_keys=True)
        assert RunConfig.from_json(json.loads(blob)) == config

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown run config"):
            RunConfig.from_json({"nodes": 2, "warp": True})
        with pytest.raises(ReproError):
            RunConfig.from_json([1, 2])

    def test_digest_is_stable_and_field_sensitive(self):
        a = RunConfig(nodes=4)
        assert config_digest(a) == config_digest(RunConfig(nodes=4))
        assert config_digest(a) != config_digest(a.replace(nodes=2))
        assert config_digest(a) != config_digest(
            a.replace(rcache_capacity=64))
        assert len(config_digest(a)) == 12

    def test_from_cli_args_tolerates_sparse_namespaces(self):
        opts = argparse.Namespace(nodes=4, engine="ast",
                                  rcache_capacity=16, rcache_line=8)
        config = RunConfig.from_cli_args(opts, args=(5,))
        assert config.nodes == 4
        assert config.engine == "ast"
        assert config.rcache_capacity == 16
        assert config.rcache_line_words == 8
        assert config.args == (5,)
        bare = RunConfig.from_cli_args(argparse.Namespace())
        assert bare == RunConfig()


class TestRunFunctionSignatures:
    @pytest.mark.parametrize("call", [
        lambda compiled: execute(compiled, num_nodes=2),
        lambda compiled: execute(compiled, 2),
        lambda compiled: execute(compiled, engine="ast",
                                 config=RunConfig(nodes=2)),
        lambda compiled: run_three_ways(SOURCE, num_nodes=2),
        lambda compiled: run_three_ways(SOURCE, "<x>", 2),
    ], ids=["execute-kwarg", "execute-positional", "execute-both",
            "three-ways-kwarg", "three-ways-positional"])
    def test_loose_options_are_a_type_error(self, compiled, call):
        with pytest.raises(TypeError):
            call(compiled)

    def test_run_three_ways_explicit_config_nodes_respected(self):
        # config= must not be bumped to the 4-node default: on one
        # node everything is local.
        single = run_three_ways(SOURCE, config=RunConfig(nodes=1))
        assert single["simple"].stats.remote_reads == 0
        multi = run_three_ways(SOURCE)  # default is 4 nodes
        assert multi["simple"].stats.remote_reads > 0

    def test_live_overrides_stay_keyword_callable(self, compiled):
        from repro.earth.params import MachineParams
        from repro.obs.trace import Tracer
        tracer = Tracer()
        result = execute(compiled, tracer=tracer, params=MachineParams(),
                         faults=FaultPlan.from_profile("mild", 3),
                         config=RunConfig(nodes=2))
        assert result.value == 42
        assert len(tracer.sorted_events()) > 0
        results = run_three_ways(SOURCE, comm_config=CommConfig(),
                                 faults=FaultPlan.from_profile("mild", 3),
                                 config=RunConfig(nodes=2))
        assert results["optimized"].value == 42


class TestStrictNilReadsAndSpeculation:
    """``strict_nil_reads`` faults on a nil remote read; a program
    compiled with ``speculative_reads`` issues reads the source guards
    by a nil test.  The pair is refused before a statement runs."""

    @staticmethod
    def _treeadd(**comm):
        spec = get_benchmark("treeadd")
        compiled = compile_earthc(spec.source(), spec.filename,
                                  optimize=True, inline=spec.inline,
                                  config=CommConfig(**comm))
        return compiled, RunConfig(nodes=4, args=spec.small_args,
                                   max_stmts=spec.max_stmts,
                                   strict_nil_reads=True)

    def test_the_program_records_its_comm_config(self):
        compiled, _ = self._treeadd(speculative_reads=False)
        assert compiled.comm == CommConfig(speculative_reads=False)
        assert compile_earthc(SOURCE).comm is None
        assert compile_earthc(SOURCE, optimize=True).comm == CommConfig()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_the_pair_is_refused_before_any_statement_runs(
            self, monkeypatch, shards):
        compiled, config = self._treeadd()

        def no_machine(*args, **kwargs):
            raise AssertionError("a machine was built")

        monkeypatch.setattr(pipeline, "make_interpreter", no_machine)
        monkeypatch.setattr("repro.shard.run_sharded", no_machine)
        with pytest.raises(UsageError) as refusal:
            execute(compiled, config=config.replace(shards=shards))
        assert "strict_nil_reads" in str(refusal.value)
        assert "speculative_reads" in str(refusal.value)

    def test_without_speculation_strict_runs_clean(self):
        compiled, config = self._treeadd(speculative_reads=False)
        assert execute(compiled, config=config).value == 47217

    def test_every_configuration_runs_strict_without_speculation(self):
        """The sequential and simple legs speculate nothing, so the
        caller's CommConfig decides."""
        spec = get_benchmark("treeadd")
        results = run_three_ways(
            spec.source(), spec.filename, inline=spec.inline,
            config=RunConfig(nodes=4, args=spec.small_args,
                             strict_nil_reads=True),
            comm_config=CommConfig(speculative_reads=False))
        assert {name: result.value for name, result in results.items()} \
            == dict.fromkeys(("sequential", "simple", "optimized"), 47217)


class TestPublicSurface:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_stable_entry_points(self):
        assert repro.compile_source is compile_source
        assert compile_source is compile_earthc
        assert repro.RunConfig is RunConfig
        assert repro.run is run
        assert repro.__version__.count(".") == 2

    def test_run_one_stop(self):
        result = run(SOURCE, config=RunConfig(nodes=2,
                                              rcache_capacity=8))
        assert result.value == 42
        assert result.stats.rcache_hits >= 0


def dataclasses_frozen_error():
    import dataclasses
    return dataclasses.FrozenInstanceError
