"""JobSpec/JobResult semantics and the pure execute_job function."""

import json
from collections import OrderedDict

import pytest

from repro.comm.optconfig import OPT_PRESETS, OptConfig, resolve_opt
from repro.comm.optimizer import CommConfig
from repro.config import WIRE_FIELDS, RunConfig
from repro.earth.faults import PROFILES
from repro.errors import ServiceError, UsageError
from repro.harness.experiments import leg_job
from repro.harness.pipeline import (
    PIPELINE_VERSION,
    compile_earthc,
    run_three_ways,
    simple_baseline_config,
)
from repro.olden.loader import get_benchmark
from repro.service import jobs
from repro.service.cache import ArtifactCache
from repro.service.jobs import (
    JobResult,
    JobSpec,
    compute_job,
    execute_job,
    run_payload,
)
from tests.frontend.test_goto_elim import INTERRUPTS

SOURCE = """
int add(int a, int b) { return a + b; }
int main(int n) { return add(n, 10); }
"""


class TestSpecValidation:
    @pytest.mark.parametrize("kind", ["transmogrify", "three-way",
                                      "four-way"])
    def test_unknown_kind_rejected(self, kind):
        """The paper's bundles are sweeps of ``run`` legs, not kinds:
        their old names are refused like any other."""
        with pytest.raises(ServiceError) as refusal:
            JobSpec(kind, source=SOURCE)
        assert str(refusal.value) == (f"unknown job kind {kind!r} "
                                      "(known: compile, run, selftest)")

    def test_source_xor_benchmark(self):
        with pytest.raises(ServiceError, match="exactly one"):
            JobSpec("compile", source=SOURCE, benchmark="power")
        with pytest.raises(ServiceError, match="exactly one"):
            JobSpec("compile")

    def test_bad_presets_rejected(self):
        with pytest.raises(ServiceError, match="comm config must be"):
            JobSpec("compile", source=SOURCE, comm="simple-baseline")
        with pytest.raises(ServiceError, match="params preset"):
            JobSpec("run", source=SOURCE, params="warp")
        with pytest.raises(ServiceError, match="engine"):
            JobSpec("run", source=SOURCE, engine="warp")

    def test_bad_nodes_rejected(self):
        with pytest.raises(ServiceError, match="nodes"):
            JobSpec("run", source=SOURCE, nodes=0)

    def test_nodes_has_an_upper_bound(self):
        """A node costs memory before the program runs: a count past
        the bound is refused, the largest scenario's is not."""
        assert RunConfig.MAX_NODES >= 1024
        assert RunConfig(nodes=RunConfig.MAX_NODES).nodes \
            == RunConfig.MAX_NODES
        with pytest.raises(UsageError, match="nodes must be <= "):
            RunConfig(nodes=10**7)
        with pytest.raises(ServiceError, match="nodes must be <= "):
            JobSpec.from_dict({"kind": "run", "source": SOURCE,
                               "nodes": RunConfig.MAX_NODES + 1})

    def test_max_stmts_has_an_upper_bound(self):
        """A statement budget is host time and ``serve`` has no default
        timeout: a budget past the cap is refused, every catalog
        benchmark's is not."""
        from repro.config import DEFAULT_MAX_STMTS
        from repro.olden.loader import catalog
        assert RunConfig.MAX_STMTS >= DEFAULT_MAX_STMTS
        assert all(spec.max_stmts <= RunConfig.MAX_STMTS
                   for spec in catalog())
        assert RunConfig(max_stmts=RunConfig.MAX_STMTS).max_stmts \
            == RunConfig.MAX_STMTS
        with pytest.raises(UsageError, match="max_stmts must be <= "):
            RunConfig(max_stmts=RunConfig.MAX_STMTS + 1)
        with pytest.raises(ServiceError, match="max_stmts must be <= "):
            JobSpec.from_dict({"kind": "run", "source": SOURCE,
                               "max_stmts": 10**18})

    @pytest.mark.parametrize("kind", ["compile", "run", "selftest"])
    @pytest.mark.parametrize("selftest", ["x", [1], 5])
    def test_a_selftest_that_is_not_an_object_is_refused(self, kind,
                                                          selftest):
        with pytest.raises(ServiceError, match="selftest"):
            JobSpec.from_dict({"kind": kind, "benchmark": "treeadd",
                               "selftest": selftest})

    @pytest.mark.parametrize("spec", [
        {"kind": "selftest", "selftest": {"behavior": "echo",
                                          "value": [{"v": float("nan")}]}},
        {"kind": "run", "source": SOURCE, "selftest": {"v": float("inf")}},
        {"kind": "compile", "source": SOURCE,
         "selftest": {"v": [float("-inf")]}}],
        ids=["echo", "run-selftest", "compile-selftest"])
    def test_a_non_finite_number_anywhere_is_refused(self, spec):
        """JSON has no NaN or Infinity, wherever Python's json reads
        one in a spec."""
        with pytest.raises(ServiceError, match="non-finite number"):
            JobSpec.from_dict(spec)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_args_rejected(self, bad):
        """JSON spells these; a job that carries one is refused, never
        a ``ValueError`` out of the key or the engine."""
        args = json.loads(f"[4, {bad}]")
        with pytest.raises(ServiceError, match="args must be finite"):
            JobSpec.from_dict({"kind": "run", "source": SOURCE,
                               "args": args})

    @pytest.mark.parametrize("bad", [2**31, -2**31 - 1, 10**400],
                             ids=["2**31", "-2**31-1", "1e400"])
    def test_out_of_range_int_args_rejected(self, bad):
        """Not a 401-digit result: an int argument is a C int."""
        with pytest.raises(ServiceError, match="args must be 32-bit ints"):
            execute_job(JobSpec("run", source=SOURCE, args=[bad]))
        with pytest.raises(ServiceError, match="args must be 32-bit ints"):
            JobSpec.from_dict({"kind": "run", "source": SOURCE,
                               "args": [4, bad]})

    @pytest.mark.parametrize("comm,message", [
        ({"opt": {"probabilistic": "no"}}, "probabilistic must be a"),
        ({"opt": {"probabilistic": 1}}, "probabilistic must be a"),
        ({"opt": {"private_lines": True}}, "unknown opt config"),
        ({"opt": {"loop_weight": 10.0}}, "unknown opt config"),
        ({"opt": 5}, "opt config must be"),
        ({"enable_blocking": "no"}, "enable_blocking must be a bool"),
        ({"speculative_reads": 1}, "speculative_reads must be a bool"),
        ({"enable_locality": True},
         r"unknown comm config fields: \['enable_locality'\]")])
    def test_bad_comm_rejected(self, comm, message):
        """A wrong-typed switch is not read as its truthiness under a
        cache key of its own, and an unknown field or a retired knob is
        refused by name, not dropped."""
        with pytest.raises(ServiceError, match=message):
            JobSpec.from_dict({"kind": "run", "benchmark": "power",
                               "comm": comm})

    @pytest.mark.parametrize("preset", OPT_PRESETS)
    def test_one_address_per_preset(self, preset):
        """A preset's name, its OptConfig and its wire dict, carried by
        a CommConfig or by the CommConfig's JSON, are one cache entry;
        the other preset's is another, and so is the simple
        baseline's."""
        opt = OptConfig(probabilistic=preset == "probabilistic")
        spellings = [CommConfig(opt=spelling)
                     for spelling in (preset, opt, opt.to_json())]
        spellings += [config.to_json() for config in spellings]
        spellings.append({"opt": preset})
        keys = {JobSpec("compile", source=SOURCE,
                        comm=comm).canonical_key() for comm in spellings}
        assert len(keys) == 1
        others = {JobSpec("compile", source=SOURCE,
                          comm=comm).canonical_key()
                  for comm in (CommConfig(opt=other)
                               for other in set(OPT_PRESETS) - {preset})}
        others.add(JobSpec("compile", source=SOURCE,
                           comm=simple_baseline_config()).canonical_key())
        assert len(others) == 2 and not others & keys

    @pytest.mark.parametrize("kind", ["compile", "run"])
    def test_legacy_is_the_unset_address(self, kind):
        """A job naming the legacy preset, however spelled, is
        byte-identical work to one naming no CommConfig, so all have
        one cache address and one wire form; the probabilistic preset
        and the simple baseline each have another."""
        unset = JobSpec(kind, benchmark="power", nodes=4)
        for comm in (None, CommConfig(), CommConfig(opt=OptConfig()),
                     CommConfig(opt=resolve_opt("legacy")), {},
                     {"opt": "legacy"}):
            legacy = JobSpec(kind, benchmark="power", nodes=4, comm=comm)
            assert legacy.canonical_key() == unset.canonical_key(), comm
            assert legacy.to_dict() == unset.to_dict(), comm
        keys = {JobSpec(kind, benchmark="power", nodes=4,
                        comm=comm).canonical_key()
                for comm in (None, CommConfig(opt="probabilistic"),
                             simple_baseline_config())}
        assert len(keys) == 3

    def test_the_preset_is_hashed_once(self):
        """What the optimizer does is in the compile options alone;
        the run options carry no compile-side field."""
        spec = JobSpec("run", benchmark="power",
                       comm=CommConfig(opt="probabilistic"))
        resolved = spec.resolved()
        assert resolved["options"] == {
            "optimize": True,
            "comm": CommConfig(opt="probabilistic").to_json()}
        assert "opt" not in resolved["run"]

    def test_without_the_optimizer_comm_is_not_read(self):
        plain = JobSpec("compile", source=SOURCE, optimize=False)
        assert JobSpec("compile", source=SOURCE, optimize=False,
                       comm=CommConfig(opt="probabilistic")
                       ).canonical_key() == plain.canonical_key()

    @pytest.mark.parametrize("key,value", [
        ("reorder_fields", True), ("config", "simple-baseline"),
        ("opt", "probabilistic"), ("opt", {"probabilistic": False})])
    def test_retired_keys_are_refused(self, key, value):
        """Field reordering is no compile option, and ``comm`` is the
        one compile key: a wire job that still carries a retired key
        (the named preset, the run-side preset) is refused, not
        compiled without it."""
        with pytest.raises(ServiceError) as refusal:
            JobSpec.from_dict({"kind": "compile", "source": SOURCE,
                               key: value})
        assert str(refusal.value) == f"unknown job spec fields: ['{key}']"

    @pytest.mark.parametrize("faults,message", [
        ({"drop_prob": 0.5}, "missing 'seed'"),
        ({"seed": "3"}, "'seed' must be an integer"),
        ({"seed": 3.7}, "'seed' must be an integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"seed": 3, "drop_prob": "0.1"}, "'drop_prob' must be a number"),
        ({"seed": 3, "jitter_ns": float("inf")},
         "jitter_ns must be finite, got inf"),
        ({"seed": 3, "stall_ns": float("nan")},
         "stall_ns must be finite, got nan")],
        ids=["no-seed", "seed=3-text", "seed=3.7", "seed=true",
             "drop_prob-text", "jitter=inf", "stall=nan"])
    def test_bad_fault_spec_rejected_eagerly(self, faults, message):
        """Refused by name, never read as a rounded seed or compared
        as a string."""
        with pytest.raises(ServiceError, match=message):
            JobSpec("run", source=SOURCE, faults=faults)

    def test_selftest_needs_behavior(self):
        with pytest.raises(ServiceError, match="behavior"):
            JobSpec("selftest")
        with pytest.raises(ServiceError, match="behavior"):
            JobSpec("selftest", selftest={"behavior": "explode"})

    @pytest.mark.parametrize("inline", ["add", [1], ["add", None], 1,
                                        {"add": True}],
                             ids=["string", "int-list", "none-in-list",
                                  "int", "object"])
    def test_inline_is_a_bool_or_function_names(self, inline):
        """A wire string is not split into one-letter function names
        (which would inline nothing under an address of its own)."""
        with pytest.raises(ServiceError, match="inline must be a bool"):
            JobSpec.from_dict({"kind": "compile", "source": SOURCE,
                               "inline": inline})

    @pytest.mark.parametrize("field,value,message", [
        ("optimize", "no", "optimize must be a bool"),
        ("optimize", 0, "optimize must be a bool"),
        ("small", "no", "small must be a bool"),
        ("small", 1, "small must be a bool"),
        ("benchmark", 5, "benchmark must be a string")])
    def test_switches_are_bools_and_a_benchmark_is_a_name(
            self, field, value, message):
        """``"optimize": "no"`` would compile optimized and ``"small":
        "no"`` run the reduced size."""
        wire = {"kind": "run", "benchmark": "power", field: value}
        with pytest.raises(ServiceError, match=message):
            JobSpec.from_dict(wire)

    @pytest.mark.parametrize("inline", [True, False, [], ["add"],
                                        ("add",), {"add"}])
    def test_inline_accepts_a_switch_or_names(self, inline):
        spec = JobSpec("compile", source=SOURCE, inline=inline)
        assert spec.inline == (inline if isinstance(inline, bool)
                               else sorted(inline))


class TestSerialization:
    def test_round_trip_preserves_canonical_key(self):
        spec = JobSpec("run", source=SOURCE, nodes=2, args=[5],
                       engine="ast", inline=["add"])
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.canonical_key() == spec.canonical_key()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown job spec"):
            JobSpec.from_dict({"kind": "compile", "source": SOURCE,
                               "frobnicate": True})

    def test_missing_kind_rejected(self):
        with pytest.raises(ServiceError, match="missing 'kind'"):
            JobSpec.from_dict({"source": SOURCE})

    def test_non_dict_rejected(self):
        with pytest.raises(ServiceError, match="must be an object"):
            JobSpec.from_dict([1, 2])

    def test_none_means_default(self):
        spec = JobSpec.from_dict({"kind": "compile", "source": SOURCE,
                                  "args": None, "nodes": None})
        assert spec.run.nodes == 4  # the default

    def test_job_result_round_trip(self):
        result = JobResult(True, "run", "f" * 64,
                           payload={"run": {"value": 1}},
                           wall_s=0.25, cache="hit", worker=3,
                           attempts=2)
        clone = JobResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_raise_if_failed(self):
        bad = JobResult(False, "run", None,
                        error={"type": "X", "message": "boom", "code": 6})
        with pytest.raises(ServiceError, match="boom"):
            bad.raise_if_failed()


class TestContentAddressing:
    def test_benchmark_and_source_jobs_share_an_address(self):
        spec = get_benchmark("power")
        by_name = JobSpec("run", benchmark="power", nodes=2,
                          small=True)
        inline = spec.inline if isinstance(spec.inline, bool) \
            else sorted(spec.inline)
        by_source = JobSpec("run", source=spec.source(),
                            filename=by_name.resolved()["filename"],
                            nodes=2, inline=inline,
                            max_stmts=spec.max_stmts,
                            args=list(spec.small_args))
        assert by_name.canonical_key() == by_source.canonical_key()

    @pytest.mark.parametrize("same,other", [
        ([], False), (["add", "add"], ["add"]), (["b", "a"], ["a", "b"])])
    def test_one_inline_product_has_one_address(self, same, other):
        """Each pair compiles the same product."""
        assert JobSpec("compile", source=SOURCE, inline=same) \
            .canonical_key() == JobSpec("compile", source=SOURCE,
                                        inline=other).canonical_key()

    def test_a_benchmark_job_inlines_nothing_when_told(self):
        """An explicit ``[]`` is not the catalog's default list."""
        spec = get_benchmark("tsp")
        assert spec.inline
        told = JobSpec("compile", benchmark="tsp", inline=[])
        assert told.resolved()["inline"] is False
        assert told.canonical_key() \
            != JobSpec("compile", benchmark="tsp").canonical_key()
        assert told.canonical_key() == JobSpec(
            "compile", source=spec.source(),
            filename=told.resolved()["filename"]).canonical_key()

    def test_source_formatting_does_not_change_the_address(self):
        a = JobSpec("compile", source="int main() { return 1; }\n")
        b = JobSpec("compile",
                    source="int main() { return 1; }   \r\n\r\n")
        assert a.canonical_key() == b.canonical_key()

    def test_options_change_the_address(self):
        base = JobSpec("compile", source=SOURCE)
        assert base.canonical_key() \
            != JobSpec("compile", source=SOURCE,
                       optimize=False).canonical_key()
        assert base.canonical_key() \
            != JobSpec("run", source=SOURCE).canonical_key()

    def test_selftests_are_never_cached(self):
        spec = JobSpec("selftest", selftest={"behavior": "echo"})
        assert not spec.cacheable()
        assert spec.canonical_key()  # still addressable (single-flight)


class TestExecuteJob:
    def test_compile_payload_is_a_function_of_the_spec(self, monkeypatch):
        """Two workers (fresh compile memos) that compiled different
        programs before give one ``compile`` payload: goto-elimination
        flags are numbered per program, not per process."""
        spec = JobSpec("compile", source=INTERRUPTS)
        monkeypatch.setattr(jobs, "_COMPILE_MEMO", OrderedDict())
        first = compute_job(spec)
        compile_earthc(INTERRUPTS.replace("i == 7", "i == 8"))
        monkeypatch.setattr(jobs, "_COMPILE_MEMO", OrderedDict())
        second = compute_job(spec)
        assert first.ok and "__brk_1" in first.payload["listing"]
        assert second.payload == first.payload

    def test_compile_job_payload(self):
        result = execute_job(JobSpec("compile", source=SOURCE))
        assert result.ok and result.cache is None
        assert result.payload["functions"] == ["add", "main"]
        assert "THREADED" in result.payload["threaded"]
        assert "optimizer" in result.payload

    def test_run_job_payload(self):
        result = execute_job(JobSpec("run", source=SOURCE, nodes=2,
                                     args=[32]))
        assert result.ok
        assert result.payload["run"]["value"] == 42
        assert result.payload["run"]["num_nodes"] == 2
        assert result.payload["run"]["time_ns"] > 0

    def test_three_way_matches_in_process_pipeline(self):
        spec = get_benchmark("power")
        reference = run_three_ways(
            spec.source(), spec.name, inline=spec.inline,
            config=RunConfig(nodes=2, args=tuple(spec.small_args),
                             max_stmts=spec.max_stmts))
        served = {name: execute_job(leg_job("power", name, 2, small=True))
                  .payload["run"] for name in reference}
        assert served == {name: run_payload(r)
                          for name, r in reference.items()}

    def test_error_carries_exit_code(self):
        result = execute_job(JobSpec("compile",
                                     source="int main( { }"))
        assert not result.ok
        assert result.error["code"] == 3  # EXIT_COMPILE
        assert result.error["type"]

    def test_strict_nil_reads_of_a_speculating_program_is_refused(self):
        """A run that asks for strict nil reads of a program compiled
        with speculative reads is a usage error (exit 2), not a fault
        partway through; without speculation it runs clean."""
        refused = execute_job(JobSpec("run", benchmark="treeadd",
                                      small=True, strict_nil_reads=True))
        assert not refused.ok
        assert refused.error["type"] == "UsageError"
        assert refused.error["code"] == 2
        assert "strict_nil_reads" in refused.error["message"]
        assert "speculative_reads" in refused.error["message"]
        clean = execute_job(JobSpec("run", benchmark="treeadd", small=True,
                                    strict_nil_reads=True,
                                    comm={"speculative_reads": False}))
        assert clean.ok and clean.payload["run"]["value"] == 47217

    def test_unknown_benchmark_is_a_job_error(self):
        result = execute_job(JobSpec("run", benchmark="fibonacci"))
        assert not result.ok
        assert result.error["code"] == 6  # ServiceError

    def test_cache_hit_is_bit_identical(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        spec = JobSpec("run", source=SOURCE, nodes=2, args=[1])
        cold = execute_job(spec, cache)
        warm = execute_job(spec, cache)
        assert cold.cache == "miss" and warm.cache == "hit"
        assert warm.payload == cold.payload

    def test_failures_are_not_cached(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        spec = JobSpec("compile", source="int main( { }")
        assert not execute_job(spec, cache).ok
        again = execute_job(spec, cache)
        assert not again.ok and again.cache == "miss"

    def test_selftest_echo_and_fail(self):
        ok = execute_job(JobSpec("selftest",
                                 selftest={"behavior": "echo",
                                           "value": 9}))
        assert ok.ok and ok.payload == {"echo": 9}
        bad = execute_job(JobSpec("selftest",
                                  selftest={"behavior": "fail",
                                            "message": "on purpose"}))
        assert not bad.ok and "on purpose" in bad.error["message"]


# ---------------------------------------------------------------------------
# Golden pins: the wire dict and the cache address of four fixed specs
# ---------------------------------------------------------------------------

PIN_SOURCE = ("int add(int a, int b) { return a + b; }\n"
              "int main(int n) { return add(n, 10); }\n")

#: ``plan_from_cli(42, "chaos", None, None).spec()``, spelled out.
PIN_FAULTS = {
    "seed": 42, "drop_prob": 0.08, "jitter_ns": 6000.0,
    "su_slowdown_factor": 4.0, "su_slowdown_windows": 2,
    "su_slowdown_window_ns": 2000000.0, "stall_windows": 2,
    "stall_ns": 500000.0, "horizon_ns": 50000000.0}

#: ``CommConfig().to_json()``, spelled out.
PIN_COMM = {"enable_forwarding": True, "enable_placement": True,
            "enable_blocking": True, "speculative_reads": True,
            "opt": None}

#: ``CommConfig(opt="probabilistic").to_json()``, spelled out.
PIN_COMM_PROB = dict(PIN_COMM, opt={"probabilistic": True})

#: The 19 wire keys at their defaults.
PIN_WIRE_DEFAULTS = {
    "kind": None, "source": None, "benchmark": None, "filename": None,
    "optimize": True, "comm": PIN_COMM, "inline": False,
    "nodes": 4, "entry": "main", "args": None, "engine": "codegen",
    "params": "default", "max_stmts": None, "strict_nil_reads": False,
    "faults": None, "rcache_capacity": 0, "rcache_line_words": 16,
    "small": False, "selftest": None}

#: name -> (constructor keywords, wire keys off their default, cache
#: address).  The wire dicts date from the commit before ``JobSpec``
#: came to carry a ``RunConfig``, with the compile keys ``config`` /
#: ``opt`` since folded into ``comm``; the addresses were re-recorded
#: at pipeline ``2026.10-effect-triples``.  A change here is a change of
#: the wire format or of every cache address, and needs a
#: ``PIPELINE_VERSION`` bump -- the two Olden pins also move when
#: ``power.ec`` / ``tsp.ec`` or their catalog entries do.
GOLDEN = {
    "compile": (
        dict(kind="compile", source=PIN_SOURCE, filename="add.ec",
             inline=["add"]),
        dict(kind="compile", source=PIN_SOURCE, filename="add.ec",
             inline=["add"]),
        "af742922c7f694b4e179a6217bac83a4"
        "f94bcd4d24df2ecb38e315ee121e9193"),
    "run": (
        dict(kind="run", source=PIN_SOURCE, nodes=2, args=[5],
             engine="ast", max_stmts=5000, strict_nil_reads=True),
        dict(kind="run", source=PIN_SOURCE, nodes=2, args=[5],
             engine="ast", max_stmts=5000, strict_nil_reads=True),
        "39205cea3ca73c21c4f139d18dfef6f2"
        "5d80a6db71a05711906a193fabd3cf58"),
    "olden-small": (
        dict(kind="run", benchmark="power", small=True),
        dict(kind="run", benchmark="power", small=True),
        "6b608d7e095dd43b5633f18a743acbbb"
        "569e6f7b2b831737ee2028882860efb2"),
    "faults-rcache-opt": (
        dict(kind="run", benchmark="tsp", small=True, nodes=2,
             faults=PIN_FAULTS, rcache_capacity=64,
             rcache_line_words=4, comm=CommConfig(opt="probabilistic")),
        dict(kind="run", benchmark="tsp", small=True, nodes=2,
             faults=PIN_FAULTS, rcache_capacity=64,
             rcache_line_words=4, comm=PIN_COMM_PROB),
        "bbdc34f05ff0c3818316365d6e4c0b96"
        "6afe670e70d25cb9e82752b759d7654d"),
}


class TestGoldenPins:
    def test_pipeline_version_is_the_pinned_one(self):
        assert PIPELINE_VERSION == "2026.10-effect-triples"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_wire_dict_and_cache_address(self, name):
        keywords, wire, key = GOLDEN[name]
        spec = JobSpec(**keywords)
        assert spec.to_dict() == {**PIN_WIRE_DEFAULTS, **wire}
        assert spec.canonical_key() == key
        assert JobSpec.from_dict(spec.to_dict()).canonical_key() == key

    @pytest.mark.parametrize("faults", [
        dict(PROFILES["chaos"], seed=42),
        dict(PIN_FAULTS, horizon_ns=50_000_000)],
        ids=["chaos-profile", "int-horizon"])
    def test_one_fault_schedule_has_one_address(self, faults):
        """A spec that leaves fields at their defaults, or spells a
        number as an int, is the complete spec on the wire and in the
        address."""
        keywords, wire, key = GOLDEN["faults-rcache-opt"]
        spec = JobSpec(**dict(keywords, faults=faults))
        assert spec.to_dict() == {**PIN_WIRE_DEFAULTS, **wire}
        assert spec.canonical_key() == key

    def test_every_wire_run_key_round_trips(self):
        """The flat wire form is the spec's own keys plus RunConfig's
        wire fields, and each of those survives the round trip."""
        own = set(PIN_WIRE_DEFAULTS) - set(WIRE_FIELDS)
        assert own == {"kind", "source", "benchmark", "filename",
                       "optimize", "comm", "inline", "small",
                       "selftest"}
        assert not {"shards", "trace", "trace_capacity"} & set(WIRE_FIELDS)
        moved = dict(nodes=3, entry="go", args=[1, 2.5], engine="ast",
                     params="sequential-c", max_stmts=99,
                     strict_nil_reads=True, faults=PIN_FAULTS,
                     rcache_capacity=7, rcache_line_words=2)
        assert set(moved) == set(WIRE_FIELDS)
        spec = JobSpec("run", source=PIN_SOURCE, **moved)
        wire = spec.to_dict()
        for name, value in moved.items():
            assert wire[name] == value, name
        clone = JobSpec.from_dict(wire)
        assert clone.to_dict() == wire
        assert clone.run == spec.run
        assert clone.canonical_key() == spec.canonical_key()
