"""Unit tests for :mod:`repro.earth.faults` itself."""

import random

import pytest

from repro.earth.faults import PROFILES, FaultPlan, plan_from_cli
from repro.errors import FaultPlanError, ReproError


class TestDeterminism:
    def test_same_seed_same_leg_fates(self):
        a = FaultPlan(7, drop_prob=0.3, jitter_ns=1000.0)
        b = FaultPlan(7, drop_prob=0.3, jitter_ns=1000.0)
        legs = [("request", 0, 1, s, 1) for s in range(50)]
        assert [a.leg(*leg) for leg in legs] \
            == [b.leg(*leg) for leg in legs]

    def test_different_seeds_differ(self):
        a = FaultPlan(1, drop_prob=0.3, jitter_ns=1000.0)
        b = FaultPlan(2, drop_prob=0.3, jitter_ns=1000.0)
        legs = [("request", 0, 1, s, 1) for s in range(50)]
        assert [a.leg(*leg) for leg in legs] \
            != [b.leg(*leg) for leg in legs]

    def test_leg_fate_independent_of_evaluation_order(self):
        # A leg's fate is keyed by its coordinates, not by how many
        # other legs were evaluated first -- the property that lets
        # shard workers compute fates for disjoint subsets of legs.
        a = FaultPlan(5, drop_prob=0.5, jitter_ns=100.0)
        b = FaultPlan(5, drop_prob=0.5, jitter_ns=100.0)
        legs = [("request", o, t, s, n)
                for o in range(2) for t in range(2)
                for s in range(3) for n in (1, 2)]
        forward = {leg: a.leg(*leg) for leg in legs}
        backward = {leg: b.leg(*leg) for leg in reversed(legs)}
        assert forward == backward

    def test_request_and_reply_legs_independent(self):
        plan = FaultPlan(5, drop_prob=0.5, jitter_ns=100.0)
        requests = [plan.leg("request", 0, 1, s, 1) for s in range(40)]
        replies = [plan.leg("reply", 0, 1, s, 1) for s in range(40)]
        assert requests != replies

    def test_never_touches_global_random(self):
        random.seed(1234)
        before = random.random()
        random.seed(1234)
        plan = FaultPlan(9, drop_prob=0.5, jitter_ns=500.0)
        plan.bind(4)
        for n in range(100):
            plan.leg("request", 0, 1, n, 1)
            plan.su_scale(0, 1000.0)
            plan.stall_until(1, 1000.0)
        assert random.random() == before

    def test_windows_stable_across_instances(self):
        a = FaultPlan(3, stall_windows=2, su_slowdown_windows=2,
                      su_slowdown_factor=2.0)
        b = a.clone()
        # Evaluate legs from one plan only: window layout must not
        # depend on leg evaluations.
        for n in range(25):
            a.leg("request", 0, 1, n, 1)
        a.bind(4)
        b.bind(4)
        assert a._su_windows == b._su_windows
        assert a._stall_windows == b._stall_windows


class TestLifecycle:
    def test_bind_twice_refused(self):
        plan = FaultPlan(1)
        plan.bind(2)
        with pytest.raises(FaultPlanError, match="clone"):
            plan.bind(2)

    def test_clone_is_unbound_and_equal(self):
        plan = FaultPlan(4, drop_prob=0.1, jitter_ns=300.0,
                         stall_windows=1)
        plan.bind(2)
        copy = plan.clone()
        copy.bind(2)  # does not raise
        assert copy.describe() == plan.describe()

    def test_zero_config_plan_injects_nothing(self):
        plan = FaultPlan(11)
        plan.bind(4)
        for n in range(20):
            dropped, extra = plan.leg("request", 0, 1, n, 1)
            assert not dropped
            assert extra == 0.0
        assert plan.su_scale(2, 12345.0) == 1.0
        assert plan.stall_until(3, 12345.0) == 12345.0


class TestWindows:
    def test_su_scale_inside_window(self):
        plan = FaultPlan(2, su_slowdown_factor=6.0,
                         su_slowdown_windows=3)
        plan.bind(2)
        start, end = plan._su_windows[1][0]
        middle = (start + end) / 2
        assert plan.su_scale(1, middle) == 6.0
        assert plan.su_scale(1, end + 1.0) in (1.0, 6.0)
        assert plan.su_scale(1, -1.0) == 1.0

    def test_stall_defers_to_window_end(self):
        plan = FaultPlan(2, stall_windows=3)
        plan.bind(2)
        start, end = plan._stall_windows[0][0]
        middle = (start + end) / 2
        assert plan.stall_until(0, middle) == end
        assert plan.stall_until(0, end) == end  # boundary: not inside
        assert plan.stall_until(0, start - 1.0) == start - 1.0


class TestValidationAndProfiles:
    @pytest.mark.parametrize("kwargs", [
        {"drop_prob": -0.1},
        {"drop_prob": 1.5},
        {"jitter_ns": -1.0},
        {"su_slowdown_factor": 0.5},
        {"su_slowdown_windows": -1},
        {"stall_windows": -2},
        {"su_slowdown_windows": FaultPlan.MAX_WINDOWS + 1},
        {"stall_windows": 10**9},
        {"horizon_ns": 0.0},
        {"stall_ns": -5.0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultPlan(1, **kwargs)

    def test_fault_plan_error_is_repro_error(self):
        # The CLI catches ReproError for one-line messages.
        assert issubclass(FaultPlanError, ReproError)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_every_profile_constructs(self, name):
        plan = FaultPlan.from_profile(name, 1)
        assert plan.seed == 1

    def test_unknown_profile(self):
        with pytest.raises(FaultPlanError, match="unknown fault profile"):
            FaultPlan.from_profile("tsunami", 1)

    def test_profile_overrides(self):
        plan = FaultPlan.from_profile("mild", 1, drop_prob=0.5)
        assert plan.drop_prob == 0.5
        assert plan.jitter_ns == PROFILES["mild"]["jitter_ns"]

    def test_describe_is_json_friendly(self):
        import json
        plan = FaultPlan.from_profile("chaos", 3)
        assert json.loads(json.dumps(plan.describe()))["seed"] == 3


class TestPlanFromCli:
    def test_bare_seed(self):
        plan = plan_from_cli(5, None, None, None)
        assert (plan.seed, plan.drop_prob, plan.jitter_ns) == (5, 0.0, 0.0)

    def test_profile_with_overrides(self):
        plan = plan_from_cli(5, "lossy", 0.01, None)
        assert plan.drop_prob == 0.01
        assert plan.jitter_ns == PROFILES["lossy"]["jitter_ns"]

    def test_explicit_knobs_without_profile(self):
        plan = plan_from_cli(5, None, 0.2, 750.0)
        assert (plan.drop_prob, plan.jitter_ns) == (0.2, 750.0)
