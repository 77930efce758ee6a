"""The OptConfig value object and its legacy-compatibility contract.

Two things are pinned here: the value-object mechanics (validation,
presets, JSON round trip, resolution of the loose forms), and the two
behavioural guarantees DESIGN.md section 18 promises -- a default/legacy
OptConfig compiles byte-identically to the pre-OptConfig optimizer, and
the probabilistic preset never changes a program's answer while never
increasing its dynamic remote-operation count.
"""

import dataclasses
import json

import pytest

import repro
from repro.comm.optconfig import (
    BLKMOV_SHAPES,
    OPT_PRESETS,
    OptConfig,
    resolve_opt,
)
from repro.config import RunConfig, config_digest, opt_from_cli_args
from repro.errors import ReproError, UsageError
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import get_benchmark

SOURCE = """
struct cell { int a; int b; int c; int d; };

int main(int n)
{
    struct cell *p;
    int i;
    int sum;
    p = (struct cell *) malloc(sizeof(struct cell)) @ 1;
    p->a = 1;
    p->b = 2;
    p->c = 3;
    sum = 0;
    for (i = 0; i < n; i++) {
        sum = sum + p->a + p->b + p->c;
    }
    return sum;
}
"""

#: One value of each JSON-ish type, tried against every field ...
WRONG_TYPE_PROBES = (True, 1, 2.5, "no", None)
#: ... and refused by each field whose annotation does not admit its
#: type (an int is a float here; a bool is neither).
FIELD_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,),
               "str": (str,)}


class TestValueObject:
    def test_default_is_legacy(self):
        assert OptConfig() == OptConfig.legacy()
        assert not OptConfig().probabilistic
        assert not OptConfig().private_lines
        assert OptConfig().block_access_threshold == 3

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            OptConfig().loop_weight = 5.0

    def test_replace_revalidates(self):
        assert OptConfig().replace(loop_weight=4.0).loop_weight == 4.0
        with pytest.raises(ReproError):
            OptConfig().replace(loop_weight=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"loop_weight": 0.0},
        {"branch_weight": 0.0},
        {"branch_weight": 1.5},
        {"freq_eps": -1.0},
        {"block_access_threshold": 0},
        {"min_expected_accesses": -0.1},
        {"max_spurious_ratio": 0.5},
        {"blkmov_shape": "suffix"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(UsageError):
            OptConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [
        (spec.name, value) for spec in dataclasses.fields(OptConfig)
        for value in WRONG_TYPE_PROBES
        if type(value) not in FIELD_TYPES[spec.type]])
    def test_every_field_refuses_a_wrong_type(self, field, value):
        """Types as RunConfig checks them: no bool is a number, no
        number a switch, no truthy string a switch."""
        with pytest.raises(UsageError, match=f"{field} must be a"):
            OptConfig(**{field: value})

    def test_an_int_weight_is_the_float_weight(self):
        assert json.dumps(OptConfig(loop_weight=4).to_json()) \
            == json.dumps(OptConfig(loop_weight=4.0).to_json())

    def test_probabilistic_preset(self):
        opt = OptConfig.probabilistic_defaults()
        assert opt.probabilistic
        assert opt.private_lines
        assert opt.block_access_threshold == 2
        assert opt.min_expected_accesses == 1.0
        # The frequency multipliers stay the paper's values: only
        # selection's profitability story changes.
        assert opt.loop_weight == OptConfig().loop_weight
        assert opt.branch_weight == OptConfig().branch_weight

    def test_json_round_trip(self):
        for opt in (OptConfig(), OptConfig.probabilistic_defaults(),
                    OptConfig(loop_weight=3.0, blkmov_shape="full")):
            data = json.loads(json.dumps(opt.to_json()))
            assert OptConfig.from_json(data) == opt

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown opt config"):
            OptConfig.from_json({"loop_weight": 2.0, "turbo": True})
        with pytest.raises(ReproError):
            OptConfig.from_json([1, 2, 3])

    def test_str_names_only_non_defaults(self):
        assert str(OptConfig()) == "OptConfig(legacy)"
        text = str(OptConfig(loop_weight=5.0))
        assert "loop_weight=5.0" in text
        assert "branch_weight" not in text


class TestResolveOpt:
    def test_none_and_instances_pass_through(self):
        assert resolve_opt(None) is None
        opt = OptConfig(loop_weight=2.0)
        assert resolve_opt(opt) is opt

    def test_presets(self):
        assert set(OPT_PRESETS) == {"legacy", "probabilistic"}
        assert resolve_opt("legacy") == OptConfig()
        assert resolve_opt("probabilistic") \
            == OptConfig.probabilistic_defaults()
        with pytest.raises(ReproError, match="unknown opt preset"):
            resolve_opt("turbo")

    def test_dict_form(self):
        assert resolve_opt({"probabilistic": True}).probabilistic
        with pytest.raises(ReproError):
            resolve_opt(42)

    def test_runconfig_normalizes_opt(self):
        config = RunConfig(opt="probabilistic")
        assert isinstance(config.opt, OptConfig)
        assert config.opt.probabilistic
        assert RunConfig().opt is None

    def test_opt_changes_config_digest(self):
        base = RunConfig()
        assert config_digest(base) \
            != config_digest(RunConfig(opt="probabilistic"))
        # An explicit legacy preset digests differently from unset:
        # the service must not serve a legacy-pinned artifact for an
        # unpinned request once defaults drift.
        assert config_digest(base) \
            != config_digest(RunConfig(opt="legacy"))

    def test_opt_from_cli_args(self):
        class Opts:
            opt_preset = "probabilistic"
            opt_block_threshold = 4
            opt_probabilistic = False  # store_true default: not given

        opt = opt_from_cli_args(Opts())
        assert opt.probabilistic  # preset field survives the False
        assert opt.block_access_threshold == 4
        assert opt_from_cli_args(object()) is None


class TestLegacyBitIdentity:
    """``opt=None``, ``opt="legacy"`` and an explicit ``OptConfig()``
    must produce the same compiled program, byte for byte."""

    def test_listings_identical(self):
        baseline = compile_earthc(SOURCE, optimize=True)
        for opt in ("legacy", OptConfig(), OptConfig.legacy()):
            other = compile_earthc(SOURCE, optimize=True, opt=opt)
            assert other.listing() == baseline.listing()
            assert other.threaded_listing() \
                == baseline.threaded_listing()

    def test_legacy_never_marks_private_lines(self):
        compiled = compile_earthc(SOURCE, optimize=True, opt="legacy")
        assert "[private]" not in compiled.listing()


class TestProbabilisticPreset:
    @pytest.mark.parametrize("name", ["treeadd", "mst"])
    def test_values_equal_and_remote_ops_not_worse(self, name):
        spec = get_benchmark(name)
        config = RunConfig(nodes=4, args=tuple(spec.small_args),
                           max_stmts=spec.max_stmts)

        def remote_ops(result):
            return (result.stats.remote_reads
                    + result.stats.remote_writes
                    + result.stats.remote_blkmovs)

        runs = {}
        for preset in ("legacy", "probabilistic"):
            compiled = compile_earthc(spec.source(), spec.name,
                                      optimize=True, inline=spec.inline,
                                      opt=preset)
            runs[preset] = execute(compiled, config=config)
        assert runs["probabilistic"].value == runs["legacy"].value
        assert runs["probabilistic"].output == runs["legacy"].output
        assert remote_ops(runs["probabilistic"]) \
            <= remote_ops(runs["legacy"])

    def test_shapes_constant_is_exhaustive(self):
        for shape in BLKMOV_SHAPES:
            OptConfig(blkmov_shape=shape)  # all valid


class TestPublicSurface:
    def test_exported_from_repro(self):
        assert repro.OptConfig is OptConfig
        assert "OptConfig" in repro.__all__
