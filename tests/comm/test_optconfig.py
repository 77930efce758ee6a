"""The OptConfig value object and its legacy-compatibility contract.

Two things are pinned here: the value-object mechanics (one switch,
two presets, JSON round trip, resolution of the loose forms, the
paper's weights as constants, and the CommConfig that carries the
preset as the one compile key), and the two behavioural guarantees
DESIGN.md section 18 promises -- the legacy preset compiles
byte-identically however it is spelled, and the probabilistic preset
never changes a program's answer while never increasing its dynamic
remote-operation count.
"""

import dataclasses
import json

import pytest

import repro
from repro.comm import optconfig
from repro.comm.optconfig import OPT_PRESETS, OptConfig, resolve_opt
from repro.comm.optimizer import CommConfig
from repro.config import RunConfig
from repro.errors import ReproError, UsageError
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog, get_benchmark

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


class TestValueObject:
    def test_one_field(self):
        """The preset switch is the only thing a caller sets."""
        assert [spec.name for spec in dataclasses.fields(OptConfig)] \
            == ["probabilistic"]

    def test_default_is_legacy(self):
        opt = OptConfig()
        assert not opt.probabilistic
        assert opt.preset == "legacy"
        assert opt.block_access_threshold == 3
        assert opt.min_expected_accesses == 2.0

    def test_probabilistic_preset(self):
        opt = OptConfig(probabilistic=True)
        assert opt.preset == "probabilistic"
        assert opt.block_access_threshold == 2
        assert opt.min_expected_accesses == 1.0

    def test_paper_weights_are_constants(self):
        assert optconfig.LOOP_WEIGHT == 10.0
        assert optconfig.BRANCH_WEIGHT == 0.5
        assert optconfig.STRONG_FREQ == 1.0 - 1e-9
        assert optconfig.MAX_SPURIOUS_RATIO == 4.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            OptConfig().probabilistic = True

    @pytest.mark.parametrize("value", [1, 0, 2.5, "no", None])
    def test_the_switch_refuses_a_wrong_type(self, value):
        """Types as RunConfig checks them: no number or truthy string
        is a switch."""
        with pytest.raises(UsageError, match="probabilistic must be a"):
            OptConfig(probabilistic=value)

    def test_json_round_trip(self):
        for opt in (OptConfig(), OptConfig(probabilistic=True)):
            data = json.loads(json.dumps(opt.to_json()))
            assert data == {"probabilistic": opt.probabilistic}
            assert OptConfig.from_json(data) == opt

    @pytest.mark.parametrize("field", [
        "loop_weight", "branch_weight", "freq_eps",
        "block_access_threshold", "min_expected_accesses",
        "max_spurious_ratio", "blkmov_shape", "private_lines"])
    def test_from_json_rejects_the_retired_knobs(self, field):
        """A spec written for the nine-field form fails loudly instead
        of compiling under a preset it did not ask for."""
        with pytest.raises(ReproError, match="unknown opt config"):
            OptConfig.from_json({"probabilistic": True, field: 1})

    def test_from_json_rejects_a_non_object(self):
        with pytest.raises(ReproError):
            OptConfig.from_json([1, 2, 3])

    def test_str_names_the_preset(self):
        assert str(OptConfig()) == "OptConfig(legacy)"
        assert str(OptConfig(probabilistic=True)) \
            == "OptConfig(probabilistic)"


class TestResolveOpt:
    def test_none_and_instances_pass_through(self):
        assert resolve_opt(None) is None
        opt = OptConfig(probabilistic=True)
        assert resolve_opt(opt) is opt

    def test_presets(self):
        assert OPT_PRESETS == ("legacy", "probabilistic")
        assert [(CommConfig(opt=name).opt or OptConfig()).preset
                for name in OPT_PRESETS] == list(OPT_PRESETS)
        assert resolve_opt("probabilistic") \
            == OptConfig(probabilistic=True)
        with pytest.raises(ReproError, match="unknown opt preset"):
            resolve_opt("turbo")

    @pytest.mark.parametrize("legacy", ["legacy", OptConfig(),
                                        {"probabilistic": False}, {}])
    def test_legacy_is_unset_however_spelled(self, legacy):
        """One preset, one value: the legacy preset resolves to None
        whatever form it travels in."""
        assert resolve_opt(legacy) is None
        assert CommConfig(opt=legacy) == CommConfig()
        assert CommConfig(opt=legacy).opt is None
        assert CommConfig.from_json({"opt": legacy}).opt is None

    def test_dict_form(self):
        assert resolve_opt({"probabilistic": True}) \
            == resolve_opt("probabilistic")
        with pytest.raises(ReproError):
            resolve_opt(42)

    def test_commconfig_normalizes_opt(self):
        config = CommConfig(opt="probabilistic")
        assert isinstance(config.opt, OptConfig)
        assert config.opt.probabilistic
        assert CommConfig().opt is None

    def test_opt_changes_the_comm_json(self):
        base = CommConfig().to_json()
        assert base != CommConfig(opt="probabilistic").to_json()
        # An explicit legacy preset is the same work as no preset, so
        # it has the same JSON form.
        assert base == CommConfig(opt="legacy").to_json()


class TestCommConfig:
    """What the optimizer does is one value with one JSON form; what
    a run does has no compile-side field."""

    def test_run_config_describes_only_the_run(self):
        assert "opt" not in {spec.name
                             for spec in dataclasses.fields(RunConfig)}
        with pytest.raises(TypeError):
            RunConfig(opt="probabilistic")

    @pytest.mark.parametrize("config", [
        CommConfig(), CommConfig(opt="probabilistic"),
        CommConfig(enable_blocking=False, speculative_reads=False)])
    def test_json_round_trip(self, config):
        data = json.loads(json.dumps(config.to_json()))
        assert sorted(data) == ["enable_blocking", "enable_forwarding",
                                "enable_placement", "opt",
                                "speculative_reads"]
        assert CommConfig.from_json(data) == config

    def test_a_missing_field_keeps_its_default(self):
        assert CommConfig.from_json({}) == CommConfig()
        assert CommConfig.from_json({"speculative_reads": False}) \
            == CommConfig(speculative_reads=False)

    @pytest.mark.parametrize("field", ["enable_forwarding",
                                       "enable_placement",
                                       "enable_blocking",
                                       "speculative_reads"])
    @pytest.mark.parametrize("value", [1, "no", None])
    def test_a_switch_refuses_a_wrong_type(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be a bool"):
            CommConfig.from_json({field: value})

    def test_unknown_fields_are_refused_by_name(self):
        with pytest.raises(UsageError) as refusal:
            CommConfig.from_json({"enable_locality": True})
        assert str(refusal.value) \
            == "unknown comm config fields: ['enable_locality']"
        with pytest.raises(UsageError, match="must be an object"):
            CommConfig.from_json(["opt"])

    def test_a_bad_preset_names_the_field(self):
        with pytest.raises(UsageError, match="opt config"):
            CommConfig(opt=42)
        with pytest.raises(UsageError, match="unknown opt preset"):
            CommConfig(opt="turbo")


class TestLegacyBitIdentity:
    """No ``CommConfig``, ``opt="legacy"`` and an explicit
    ``OptConfig()`` must produce the same compiled program, byte for
    byte."""

    def test_listings_identical(self):
        baseline = compile_earthc(SOURCE, optimize=True)
        for opt in ("legacy", OptConfig(), {"probabilistic": False}):
            other = compile_earthc(SOURCE, optimize=True,
                                   config=CommConfig(opt=opt))
            assert other.listing() == baseline.listing()
            assert other.threaded_listing() \
                == baseline.threaded_listing()

    def test_legacy_never_marks_private_lines(self):
        compiled = compile_earthc(SOURCE, optimize=True,
                                  config=CommConfig(opt="legacy"))
        assert "[private]" not in compiled.listing()

    @pytest.mark.parametrize("preset", OPT_PRESETS)
    @pytest.mark.parametrize("name", [spec.name for spec in catalog()])
    def test_every_spelling_compiles_alike(self, name, preset):
        """Equal configs, equal programs: a CommConfig carrying the
        preset's name, its OptConfig or its wire dict, and the
        CommConfig's own JSON form, compile each Olden benchmark to the
        same listings (legacy also as no CommConfig at all)."""
        spec = get_benchmark(name)
        opt = OptConfig(probabilistic=preset == "probabilistic")
        spellings = [{"config": CommConfig(opt=preset)},
                     {"config": CommConfig(opt=opt)},
                     {"config": CommConfig(opt=opt.to_json())},
                     {"config": CommConfig.from_json({"opt": preset})}]
        if not opt.probabilistic:
            spellings += [{}, {"config": None}]
        texts = set()
        for keywords in spellings:
            compiled = compile_earthc(spec.source(), spec.name,
                                      optimize=True, inline=spec.inline,
                                      **keywords)
            texts.add((compiled.listing(), compiled.threaded_listing()))
        assert len(texts) == 1


#: The three cheapest Olden programs, run under both presets.
TRIO = ("power", "treeadd", "mst")


@pytest.fixture(scope="module")
def preset_runs():
    """benchmark -> preset -> its optimized run at the small size on
    4 nodes."""
    runs = {}
    for name in TRIO:
        spec = get_benchmark(name)
        config = RunConfig(nodes=4, args=tuple(spec.small_args),
                           max_stmts=spec.max_stmts)
        for preset in OPT_PRESETS:
            compiled = compile_earthc(spec.source(), spec.name,
                                      optimize=True, inline=spec.inline,
                                      config=CommConfig(opt=preset))
            runs.setdefault(name, {})[preset] = execute(compiled,
                                                        config=config)
    return runs


class TestProbabilisticPreset:
    @pytest.mark.parametrize("name", TRIO)
    def test_values_equal_and_remote_ops_not_worse(self, preset_runs,
                                                   name):
        legacy = preset_runs[name]["legacy"]
        prob = preset_runs[name]["probabilistic"]
        assert prob.value == legacy.value
        assert prob.output == legacy.output
        assert prob.stats.total_remote_ops \
            <= legacy.stats.total_remote_ops

    def test_the_preset_reduces_remote_ops_somewhere(self, preset_runs):
        assert any(runs["probabilistic"].stats.total_remote_ops
                   < runs["legacy"].stats.total_remote_ops
                   for runs in preset_runs.values())


class TestPublicSurface:
    def test_exported_from_repro(self):
        assert repro.OptConfig is OptConfig
        assert "OptConfig" in repro.__all__
