"""JobSpec/JobResult semantics and the pure execute_job function."""

from collections import OrderedDict

import pytest

from repro.comm.optconfig import OPT_PRESETS, OptConfig
from repro.config import WIRE_FIELDS, RunConfig
from repro.errors import ServiceError
from repro.harness.experiments import leg_job
from repro.harness.pipeline import (
    PIPELINE_VERSION,
    compile_earthc,
    run_three_ways,
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
        with pytest.raises(ServiceError, match="config preset"):
            JobSpec("compile", source=SOURCE, config="warp")
        with pytest.raises(ServiceError, match="params preset"):
            JobSpec("run", source=SOURCE, params="warp")
        with pytest.raises(ServiceError, match="engine"):
            JobSpec("run", source=SOURCE, engine="warp")

    def test_bad_nodes_rejected(self):
        with pytest.raises(ServiceError, match="nodes"):
            JobSpec("run", source=SOURCE, nodes=0)

    @pytest.mark.parametrize("opt,message", [
        ({"probabilistic": "no"}, "must be a"),
        ({"probabilistic": 1}, "must be a"),
        ({"private_lines": True}, "unknown opt config"),
        ({"loop_weight": 10.0}, "unknown opt config")])
    def test_bad_opt_rejected(self, opt, message):
        """A wrong-typed switch is not read as its truthiness under a
        cache key of its own, and a retired knob is refused, not
        dropped."""
        with pytest.raises(ServiceError, match=message):
            JobSpec.from_dict({"kind": "run", "benchmark": "power",
                               "opt": opt})

    @pytest.mark.parametrize("preset", OPT_PRESETS)
    def test_one_address_per_preset(self, preset):
        """A preset's name, its OptConfig and its wire dict are one
        cache entry, and the other preset's is another."""
        opt = OptConfig(probabilistic=preset == "probabilistic")
        keys = {JobSpec("compile", source=SOURCE,
                        opt=spelling).canonical_key()
                for spelling in (preset, opt, opt.to_json())}
        other, = set(OPT_PRESETS) - {preset}
        assert len(keys) == 1
        assert JobSpec("compile", source=SOURCE,
                       opt=other).canonical_key() not in keys

    @pytest.mark.parametrize("kind", ["compile", "run"])
    def test_legacy_is_the_unset_address(self, kind):
        """A job naming the legacy preset is byte-identical work to
        one naming no preset, so both have one cache address."""
        unset = JobSpec(kind, benchmark="power", nodes=4)
        legacy = JobSpec(kind, benchmark="power", nodes=4, opt="legacy")
        assert legacy.canonical_key() == unset.canonical_key()
        assert legacy.to_dict() == unset.to_dict()

    def test_reorder_fields_is_refused(self):
        """Field reordering is no compile option: a wire job that still
        carries the key is refused, not compiled without it."""
        with pytest.raises(ServiceError) as refusal:
            JobSpec.from_dict({"kind": "compile", "source": SOURCE,
                               "reorder_fields": True})
        assert str(refusal.value) \
            == "unknown job spec fields: ['reorder_fields']"

    def test_bad_fault_spec_rejected_eagerly(self):
        with pytest.raises(Exception):
            JobSpec("run", source=SOURCE, faults={"drop_prob": 0.5})

    def test_selftest_needs_behavior(self):
        with pytest.raises(ServiceError, match="behavior"):
            JobSpec("selftest")
        with pytest.raises(ServiceError, match="behavior"):
            JobSpec("selftest", selftest={"behavior": "explode"})


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

#: ``resolve_opt("probabilistic").to_json()``, spelled out.
PIN_OPT = {"probabilistic": True}

#: The 20 wire keys at their defaults.
PIN_WIRE_DEFAULTS = {
    "kind": None, "source": None, "benchmark": None, "filename": None,
    "optimize": True, "config": "default", "inline": False,
    "nodes": 4, "entry": "main", "args": None, "engine": "codegen",
    "params": "default", "max_stmts": None, "strict_nil_reads": False,
    "faults": None, "rcache_capacity": 0, "rcache_line_words": 16,
    "small": False, "selftest": None, "opt": None}

#: name -> (constructor keywords, wire keys off their default, cache
#: address).  The wire dicts date from the commit before ``JobSpec``
#: came to carry a ``RunConfig``; the addresses were re-recorded at
#: pipeline ``2026.10-set-options``.  A change here is a change of the
#: wire format or of every cache address, and needs a
#: ``PIPELINE_VERSION`` bump -- the two Olden pins also move when
#: ``power.ec`` / ``tsp.ec`` or their catalog entries do.
GOLDEN = {
    "compile": (
        dict(kind="compile", source=PIN_SOURCE, filename="add.ec",
             inline=["add"]),
        dict(kind="compile", source=PIN_SOURCE, filename="add.ec",
             inline=["add"]),
        "37f9cb7cebf8309c88044c409fd2613f"
        "80d6aa0c925d547daafefb019e2b5d86"),
    "run": (
        dict(kind="run", source=PIN_SOURCE, nodes=2, args=[5],
             engine="ast", max_stmts=5000, strict_nil_reads=True),
        dict(kind="run", source=PIN_SOURCE, nodes=2, args=[5],
             engine="ast", max_stmts=5000, strict_nil_reads=True),
        "d08c3d9ce8d2b43bda8ebc897b45946e"
        "183e95ddf7a7a2364c86cd7506f766d6"),
    "olden-small": (
        dict(kind="run", benchmark="power", small=True),
        dict(kind="run", benchmark="power", small=True),
        "a5d936dc044317b2e1ec37df6f15d825"
        "1b0d2bf2039191cf1f38fda9d9608740"),
    "faults-rcache-opt": (
        dict(kind="run", benchmark="tsp", small=True, nodes=2,
             faults=PIN_FAULTS, rcache_capacity=64,
             rcache_line_words=4, opt="probabilistic"),
        dict(kind="run", benchmark="tsp", small=True, nodes=2,
             faults=PIN_FAULTS, rcache_capacity=64,
             rcache_line_words=4, opt=PIN_OPT),
        "79c439b0ec26268bf49c713bb316519c"
        "3a893760a4c5ebdb4df9a77449a84d49"),
}


class TestGoldenPins:
    def test_pipeline_version_is_the_pinned_one(self):
        assert PIPELINE_VERSION == "2026.10-set-options"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_wire_dict_and_cache_address(self, name):
        keywords, wire, key = GOLDEN[name]
        spec = JobSpec(**keywords)
        assert spec.to_dict() == {**PIN_WIRE_DEFAULTS, **wire}
        assert spec.canonical_key() == key
        assert JobSpec.from_dict(spec.to_dict()).canonical_key() == key

    def test_every_wire_run_key_round_trips(self):
        """The flat wire form is the spec's own keys plus RunConfig's
        wire fields, and each of those survives the round trip."""
        own = set(PIN_WIRE_DEFAULTS) - set(WIRE_FIELDS)
        assert own == {"kind", "source", "benchmark", "filename",
                       "optimize", "config", "inline", "small",
                       "selftest"}
        assert not {"shards", "trace", "trace_capacity"} & set(WIRE_FIELDS)
        moved = dict(nodes=3, entry="go", args=[1, 2.5], engine="ast",
                     params="sequential-c", max_stmts=99,
                     strict_nil_reads=True, faults=PIN_FAULTS,
                     rcache_capacity=7, rcache_line_words=2,
                     opt=PIN_OPT)
        assert set(moved) == set(WIRE_FIELDS)
        spec = JobSpec("run", source=PIN_SOURCE, **moved)
        wire = spec.to_dict()
        for name, value in moved.items():
            assert wire[name] == value, name
        clone = JobSpec.from_dict(wire)
        assert clone.to_dict() == wire
        assert clone.run == spec.run
        assert clone.canonical_key() == spec.canonical_key()
