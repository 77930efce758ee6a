"""Cross-process serialization contracts: every object the service
ships between processes must survive pickle (multiprocessing queues)
and, where it crosses the wire, JSON."""

import json
import pickle

import pytest

from repro.earth.faults import FaultPlan, plan_from_cli
from repro.earth.stats import MachineStats
from repro.errors import FaultPlanError
from repro.harness.pipeline import compile_earthc, execute
from repro.config import RunConfig

SOURCE = """
struct cell { int value; };
int main(int n) {
    struct cell *c;
    c = (struct cell *) malloc(sizeof(struct cell)) @ 1;
    c->value = n * 2;
    return c->value;
}
"""


class TestMachineStatsRoundTrip:
    def _stats_with_history(self):
        compiled = compile_earthc(SOURCE, "cell.ec", optimize=True)
        plan = plan_from_cli(11, None, 0.3, None)
        return execute(compiled, faults=plan,
                       config=RunConfig(nodes=2, args=(21,))).stats

    def test_snapshot_json_round_trip(self):
        stats = self._stats_with_history()
        snapshot = stats.snapshot()
        # The snapshot crosses the wire as JSON.
        restored = MachineStats.from_snapshot(
            json.loads(json.dumps(snapshot)))
        assert restored.snapshot() == snapshot

    def test_histogram_counters_are_restored_as_counters(self):
        stats = self._stats_with_history()
        restored = MachineStats.from_snapshot(stats.snapshot())
        # merge() needs Counter semantics, not plain dicts.
        merged = MachineStats()
        merged.merge(restored)
        merged.merge(restored)
        assert merged.remote_reads == 2 * stats.remote_reads

    def test_unknown_snapshot_keys_rejected(self):
        snapshot = MachineStats().snapshot()
        snapshot["bogus_counter"] = 1
        with pytest.raises(ValueError, match="bogus_counter"):
            MachineStats.from_snapshot(snapshot)

    def test_pickle_round_trip(self):
        stats = self._stats_with_history()
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.snapshot() == stats.snapshot()


class TestFaultPlanRoundTrip:
    def test_spec_json_round_trip_is_lossless(self):
        plan = plan_from_cli(13, "chaos", None, None)
        spec = json.loads(json.dumps(plan.spec()))
        restored = FaultPlan.from_spec(spec)
        assert restored.spec() == plan.spec()

    def test_restored_plan_reproduces_the_run(self):
        compiled = compile_earthc(SOURCE, "cell.ec", optimize=True)
        plan = plan_from_cli(5, "lossy", None, None)
        spec = plan.spec()
        first = execute(compiled, faults=plan,
                        config=RunConfig(nodes=2, args=(3,)))
        second = execute(compiled, faults=FaultPlan.from_spec(spec),
                         config=RunConfig(nodes=2, args=(3,)))
        assert second.value == first.value
        assert second.time_ns == first.time_ns
        assert second.stats.snapshot() == first.stats.snapshot()

    def test_from_spec_requires_seed(self):
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan.from_spec({"drop_prob": 0.1})

    def test_from_spec_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec({"seed": 1, "warp_factor": 9})

    def test_pickle_round_trip_unbound(self):
        plan = plan_from_cli(3, "jittery", None, None)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.spec() == plan.spec()


class TestCompiledProgramRoundTrip:
    def test_pickle_round_trip_preserves_behavior(self):
        compiled = compile_earthc(SOURCE, "cell.ec", optimize=True)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.listing() == compiled.listing()
        assert clone.threaded_listing() == compiled.threaded_listing()
        original = execute(compiled, config=RunConfig(nodes=2, args=(4,)))
        restored = execute(clone, config=RunConfig(nodes=2, args=(4,)))
        assert restored.value == original.value == 8
        assert restored.time_ns == original.time_ns

    def test_run_result_pickle_round_trip(self):
        compiled = compile_earthc(SOURCE, "cell.ec", optimize=True)
        result = execute(compiled, config=RunConfig(nodes=2, args=(6,)))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.value == result.value
        assert clone.time_ns == result.time_ns
        assert clone.output == result.output
        assert clone.stats.snapshot() == result.stats.snapshot()
        assert clone.utilization() == result.utilization()
