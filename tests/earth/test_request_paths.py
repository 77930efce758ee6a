"""The machine's one request path, in the cases it must get right.

Every split-phase request -- clean or under a fault plan, in one process
or across the shard port -- is one ``_PendingOp`` on one path.  These
tests pin that a clean cross-shard request observes exactly what one
process observes, and that a request drained from a channel's reorder
buffer replies after its own one-way latency.
"""

from repro.config import RunConfig
from repro.earth.faults import PROFILES
from repro.earth.machine import Fiber, Machine
from repro.earth.params import MachineParams
from repro.harness.pipeline import compile_earthc, execute
from repro.obs.trace import Tracer
from repro.shard.runner import run_sharded
from repro.shard.worker import ShardWorker

from tests.chaos.scripted import RMW_LOOP, ScriptedPlan


def test_drained_read_replies_after_its_own_latency():
    """A write's first request is lost and a later same-channel read
    parks behind it.  When the write's retry drains the read, the
    read's reply crosses the network in the read's one-way latency, not
    the write's."""
    params = MachineParams()
    assert params.read_one_way_ns != params.write_one_way_ns
    tracer = Tracer()
    machine = Machine(2, params, tracer=tracer, faults=ScriptedPlan(0))
    addr = machine.memory.allocate(1, 1)
    done = {}

    def fiber():
        write = machine.issue(
            "write", 1, 1, lambda: machine.memory.write_word(addr, 7), "w")
        read = machine.issue(
            "read", 1, 1, lambda: machine.memory.read_word(addr), "r")
        yield write
        done["value"] = yield read

    machine.add_fiber(Fiber(fiber(), 0))
    machine.run()
    assert done["value"] == 7
    assert machine.stats.ooo_holds == 1
    write_id, read_id = [event["id"] for event in tracer.events_of("issue")]
    (write_served,) = [event for event in tracer.events_of("su_span")
                       if event["id"] == write_id]
    su_done = write_served["ts"] + write_served["dur"]
    (read_fulfilled,) = [event for event in tracer.events_of("fulfill")
                         if event["id"] == read_id]
    assert read_fulfilled["ts"] == su_done + params.read_one_way_ns


def test_clean_cross_shard_rmw_loop_equals_one_process():
    """Every request of the loop crosses from node 0's shard to node
    1's.  (Olden programs across 2 shards, power among them, are
    ``tests/shard/test_bit_identity.py``'s.)"""
    compiled = compile_earthc(RMW_LOOP, "rmw_loop.ec", optimize=True)
    config = RunConfig(nodes=2, trace=True)
    base = execute(compiled, config=config)
    assert base.stats.remote_reads + base.stats.remote_writes > 0
    sharded = run_sharded(compiled.simple, config.replace(shards=2),
                          inline=True)
    assert sharded.value == base.value
    assert sharded.output == base.output
    assert sharded.time_ns == base.time_ns
    assert sharded.stats.snapshot() == base.stats.snapshot()
    assert sharded.eu_busy_ns == base.eu_busy_ns
    assert sharded.su_busy_ns == base.su_busy_ns
    assert list(sharded.tracer.events) == list(base.tracer.events)


def test_origin_drops_a_clean_cross_shard_record_at_its_reply(
        monkeypatch):
    """With no fault plan a request's one reply ends its origin-side
    record; under a plan the record stays, so a re-sent reply counts as
    a duplicate."""
    left = []
    finish = ShardWorker.finish

    def recording_finish(self):
        left.append(len(self.machine._inflight))
        return finish(self)

    monkeypatch.setattr(ShardWorker, "finish", recording_finish)
    compiled = compile_earthc(RMW_LOOP, "rmw_loop.ec", optimize=True)
    config = RunConfig(nodes=2, shards=2)
    run_sharded(compiled.simple, config, inline=True)
    assert left == [0, 0]
    left.clear()
    run_sharded(compiled.simple,
                config.replace(faults=dict(PROFILES["lossy"], seed=0)),
                inline=True)
    assert sum(left) > 0
