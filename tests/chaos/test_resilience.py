"""The split-phase resilience layer under surgically scripted faults.

These tests lose *specific* messages (by global leg index) and assert
both halves of the reliability contract: the program's value never
changes, and the recovery shows up in the right counters -- retries for
lost requests, dedup replays for lost replies, in-order holds for
requests that overtook a lost predecessor.
"""

import pytest

from repro.earth.faults import FaultPlan
from repro.earth.interpreter import ENGINES
from repro.errors import SimulatorError
from repro.harness.pipeline import compile_earthc, execute
from repro.config import RunConfig

from tests.chaos.scripted import RMW_LOOP, ScriptedPlan

NEVER = 10 ** 9  # a leg index no run reaches: counts legs, drops none


@pytest.fixture(scope="module")
def compiled():
    return compile_earthc(RMW_LOOP, "rmw_loop.ec", optimize=True)


@pytest.fixture(scope="module")
def baseline(compiled):
    return execute(compiled, config=RunConfig(nodes=2, args=tuple([])))


@pytest.fixture(scope="module")
def leg_count(compiled, baseline):
    probe = ScriptedPlan(NEVER)
    result = execute(compiled, faults=probe,
                     config=RunConfig(nodes=2, args=tuple([])))
    assert result.value == baseline.value
    assert probe.leg_count > 0
    return probe.leg_count


class TestSingleLegLoss:
    def test_every_single_leg_drop_preserves_the_value(
            self, compiled, baseline, leg_count):
        """Exhaustive: losing any one message -- request or reply, any
        op -- must not change what the program computes."""
        for index in range(leg_count):
            result = execute(compiled, faults=ScriptedPlan(index),
                             config=RunConfig(nodes=2, args=tuple([])))
            assert result.value == baseline.value, f"dropped leg {index}"
            assert result.output == baseline.output, f"dropped leg {index}"
            stats = result.stats
            assert stats.net_drops == 1
            # The lost message itself retries once; requests parked
            # behind it may time out and retry too.
            assert stats.op_retries >= 1
            assert stats.op_timeouts >= stats.op_retries

    def test_lost_request_is_retried_not_reapplied(self, compiled,
                                                   baseline):
        # Leg 0 is the very first request: it must be re-sent, arrive
        # on the second attempt, and apply exactly once.
        result = execute(compiled, faults=ScriptedPlan(0),
                         config=RunConfig(nodes=2, args=tuple([])))
        assert result.value == baseline.value
        stats = result.stats
        assert stats.op_retries >= 1
        histogram = dict(stats.op_attempts_histogram)
        assert histogram.get("2", 0) >= 1  # the retried op: 2 sends
        assert histogram.get("1", 0) >= 1  # the rest: first try
        assert set(histogram) <= {"1", "2"}
        # Every issued remote op completed exactly once.
        assert sum(histogram.values()) \
            == stats.remote_reads + stats.remote_writes \
            + stats.remote_blkmovs + stats.remote_calls

    def test_lost_reply_hits_the_dedup_path(self, compiled, baseline,
                                            leg_count):
        """Find a reply-leg drop: the operation applied, only the ack
        was lost, so the retry must be absorbed as a duplicate."""
        for index in range(leg_count):
            result = execute(compiled, faults=ScriptedPlan(index),
                             config=RunConfig(nodes=2, args=tuple([])))
            if result.stats.dedup_replays:
                assert result.value == baseline.value
                assert result.stats.dedup_replays == 1
                return
        pytest.fail("no leg index exercised the reply-drop dedup path")

    def test_overtaking_requests_are_held_in_order(self, compiled,
                                                   baseline, leg_count):
        """Some dropped request must strand later same-channel traffic
        behind it -- and the hold must keep the value right."""
        held = 0
        for index in range(leg_count):
            result = execute(compiled, faults=ScriptedPlan(index),
                             config=RunConfig(nodes=2, args=tuple([])))
            held += result.stats.ooo_holds
            assert result.value == baseline.value, f"dropped leg {index}"
        assert held > 0


class TestLossBeyondRetryBudget:
    def test_total_loss_raises_after_bounded_attempts(self, compiled):
        plan = FaultPlan(1, drop_prob=1.0)
        with pytest.raises(SimulatorError, match="lost after"):
            execute(compiled, faults=plan,
                    config=RunConfig(nodes=2, args=tuple([])))

    def test_heavy_loss_within_budget_still_succeeds(self, compiled,
                                                     baseline):
        # At 30% per-leg loss an attempt succeeds with p = 0.49 (both
        # legs must survive), comfortably inside the 10-attempt budget.
        for seed in range(3):
            result = execute(compiled, faults=FaultPlan(seed, drop_prob=0.3),
                             config=RunConfig(nodes=2, args=tuple([])))
            assert result.value == baseline.value
            assert result.stats.op_retries > 0


class TestNullPlan:
    def test_null_plan_preserves_values_and_operation_counts(
            self, compiled, baseline):
        """A FaultPlan with every knob at zero still switches the
        machine onto the resilient protocol; values, output, and all
        communication counters must match the faults=None run (timing
        may legitimately differ -- e.g. invoke tokens now occupy the
        target SU)."""
        result = execute(compiled, faults=FaultPlan(0),
                         config=RunConfig(nodes=2, args=tuple([])))
        assert result.value == baseline.value
        assert result.output == baseline.output
        base = baseline.stats
        got = result.stats
        for counter in ("remote_reads", "remote_writes",
                        "remote_blkmovs", "remote_blkmov_words",
                        "local_reads", "local_writes", "local_blkmovs",
                        "shared_ops", "remote_calls", "fibers_spawned",
                        "basic_stmts_executed"):
            assert getattr(got, counter) == getattr(base, counter), counter
        assert got.net_drops == 0
        assert got.op_retries == 0
        assert got.dedup_replays == 0
        assert got.ooo_holds == 0


class TestEngineAgreement:
    def test_engines_agree_under_scripted_loss(self, compiled, leg_count):
        for index in (0, leg_count // 2, leg_count - 1):
            runs = [execute(compiled, faults=ScriptedPlan(index),
                            config=RunConfig(nodes=2, args=tuple([]),
                                             engine=engine))
                    for engine in ENGINES]
            for other in runs[1:]:
                assert other.value == runs[0].value
                assert other.time_ns == runs[0].time_ns
                assert other.stats.snapshot() == runs[0].stats.snapshot()
