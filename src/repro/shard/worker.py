"""One shard worker: a full machine restricted to its owned nodes.

Each worker holds a complete :class:`~repro.earth.machine.Machine` and
:class:`~repro.earth.interpreter.Interpreter` (globals initialized
identically everywhere -- the layout is deterministic), but only fibers
whose node it owns ever run, and only owned nodes' heaps are
authoritative.  Effects targeting foreign nodes leave through the
:class:`ShardPort` as :mod:`repro.shard.messages` tuples; the
coordinator delivers them at the next window barrier and
:meth:`ShardWorker.apply` hands each one to the machine's
``recv_remote_request`` / ``deliver_remote_reply`` / ``deliver_ret`` /
``deliver_inval`` entry point.  Those build the event keys in the same
machine methods the single-process machine schedules through, which is
what makes the merged event order bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import RunConfig
from repro.earth.interpreter import Interpreter
from repro.earth.machine import Fiber, Machine, Slot
from repro.earth.memory import node_of
from repro.errors import ShardError
from repro.shard import messages
from repro.shard.messages import SlotProxy
from repro.shard.partition import Partition


class ShardPort:
    """The machine's exit for effects that target foreign nodes.

    Implements the port protocol :class:`~repro.earth.machine.Machine`
    consults (``owns`` plus the five ``send_*`` hooks) by queueing
    picklable messages per destination shard; :meth:`drain` hands the
    queue to the worker at the end of each window.
    """

    __slots__ = ("shard_id", "partition", "tracer", "_outbox", "_slots",
                 "_next_ref")

    def __init__(self, shard_id: int, partition: Partition, tracer):
        self.shard_id = shard_id
        self.partition = partition
        self.tracer = tracer
        self._outbox: List[tuple] = []  # (dest_shard, message)
        #: Real slots awaiting a cross-shard return, keyed by the ref
        #: their travelling :class:`SlotProxy` carries.
        self._slots: Dict[tuple, Slot] = {}
        self._next_ref = 0

    # -- machine port protocol ---------------------------------------------

    def owns(self, node: int) -> bool:
        return self.partition.shard_of(node) == self.shard_id

    def send_request(self, **kw) -> None:
        operation = kw["operation"]
        dest = self.partition.shard_of(kw["target"])
        if kw["op"] == "spawn":
            kw["operation"] = self._spawn_recipe(operation)
        elif operation[0] == "sharedf":
            raise ShardError(
                f"shared-variable operation from node {kw['origin']} "
                f"to node {kw['target']} names a frame-declared cell "
                f"and cannot cross a shard boundary")
        elif operation[0] == "bxfer" \
                and self.partition.shard_of(node_of(operation[1])) != dest:
            raise ShardError(
                f"blkmov with both endpoints remote reads node "
                f"{node_of(operation[1])} while servicing at node "
                f"{kw['target']}; the partition places them on "
                f"different shards")
        self._post(dest, messages.req(**kw))

    def send_reply(self, **kw) -> None:
        self._post(self.partition.shard_of(kw["origin"]),
                   messages.rep(**kw))

    def send_spawn(self, child: Fiber, earliest: float) -> None:
        recipe = self._spawn_recipe(child)
        # The receiving worker emits the fiber_spawn trace event; a
        # reserved position makes it sort exactly where the spawner's
        # own emission would have gone.
        tag = self.tracer.reserve() if self.tracer is not None else None
        self._post(self.partition.shard_of(child.node),
                   messages.spawn(*recipe, earliest, tag))

    def send_ret(self, slot, value, at: float, dst: int, src: int,
                 seq: int) -> None:
        if not isinstance(slot, SlotProxy):  # pragma: no cover
            raise ShardError(
                f"return for slot {slot!r} targets foreign node {dst} "
                f"but the slot did not arrive through a shard spawn")
        self._post(self.partition.shard_of(dst),
                   messages.ret(slot.ref, value, at, dst, src, seq))

    def send_inval(self, holder: int, key: tuple, t_w: float, at: float,
                   seq: int) -> None:
        self._post(self.partition.shard_of(holder),
                   messages.inval(holder, key, t_w, at, seq))

    # -- proxy registry ------------------------------------------------------

    def _proxy(self, slot: Slot) -> SlotProxy:
        ref = (self.shard_id, self._next_ref)
        self._next_ref += 1
        self._slots[ref] = slot
        return SlotProxy(ref, slot.node)

    def _spawn_recipe(self, child: Fiber) -> tuple:
        """The picklable form of a placed call's fiber: ``(desc,
        fiber_id, name, node)`` with the result slot proxied."""
        if child.spawn_desc is None:
            raise ShardError(
                f"fiber {child.name!r} (node {child.node}) has no spawn "
                f"description and cannot cross a shard boundary; only "
                f"placed calls may target foreign nodes")
        fname, args, slot = child.spawn_desc
        return ((fname, list(args), self._proxy(slot)), child.id,
                child.name, child.node)

    def take_slot(self, ref: tuple) -> Slot:
        slot = self._slots.pop(ref, None)
        if slot is None:  # pragma: no cover - protocol error
            raise ShardError(f"no slot registered under {ref!r}")
        return slot

    def _post(self, dest: int, message: tuple) -> None:
        if dest == self.shard_id:  # pragma: no cover - owns() contract
            raise ShardError(f"message routed to own shard: {message!r}")
        self._outbox.append((dest, message))

    def drain(self) -> List[tuple]:
        out, self._outbox = self._outbox, []
        return out


class ShardWorker:
    """One shard's machine, interpreter, and message plumbing."""

    def __init__(self, shard_id: int, partition: Partition, program,
                 config: RunConfig):
        self.shard_id = shard_id
        self.partition = partition
        params = config.machine_params()
        # Workers always record full traces when tracing is requested;
        # a ring-buffer capacity is applied to the *merged* stream so
        # it drops exactly the events the single-process buffer would.
        tracer = None
        if config.trace:
            from repro.obs.trace import Tracer
            tracer = Tracer(capacity=None)
            tracer.origin_op_ids = True
        self.machine = Machine(config.nodes, params,
                               strict_nil_reads=config.strict_nil_reads,
                               tracer=tracer,
                               faults=config.fault_plan())
        self.port = ShardPort(shard_id, partition, tracer)
        self.machine.port = self.port
        # Event tagging is always on for workers: output lines and
        # trace events carry the (time, key) of the machine event that
        # produced them, the sort key of the merge.
        self.machine.enable_event_tags()
        self.interp = Interpreter(program, self.machine,
                                  max_stmts=config.max_stmts,
                                  engine=config.engine)
        self.result_slot = self.interp.start(
            config.entry, config.args,
            root_fiber=self.port.owns(0))
        self.entry = config.entry

    # -- window protocol -----------------------------------------------------

    def run_window(self, horizon: float, inbox: List[tuple]) -> tuple:
        """Apply ``inbox``, run events strictly below ``horizon``, and
        report ``(outbox, next_event_time, parked_count, time)``."""
        for message in inbox:
            self.apply(message)
        self.machine.run_until(horizon)
        return (self.port.drain(), self.machine.next_event_time(),
                self.machine._parked_count, self.machine.time)

    def apply(self, message: tuple) -> None:
        kind = message[0]
        if kind == "req":
            kw = dict(message[1])
            if kw["op"] == "spawn":
                kw["operation"] = self.interp.placed_fiber(
                    *kw["operation"])
            self.machine.recv_remote_request(**kw)
        elif kind == "rep":
            self.machine.deliver_remote_reply(**message[1])
        elif kind == "spawn":
            *recipe, earliest, tag = message[1:]
            self.machine.add_fiber(self.interp.placed_fiber(*recipe),
                                   earliest=earliest, _tag=tag)
        elif kind == "ret":
            _, ref, value, at, dst, src, seq = message
            self.machine.deliver_ret(self.port.take_slot(ref), value,
                                     at, dst, src, seq)
        elif kind == "inval":
            _, holder, key, t_w, at, seq = message
            self.machine.deliver_inval(holder, tuple(key), t_w, at, seq)
        else:  # pragma: no cover
            raise ShardError(f"unknown shard message {message!r}")

    # -- end of run ----------------------------------------------------------

    def finish(self) -> dict:
        """This shard's contribution to the merged run result."""
        machine = self.machine
        tracer = machine.tracer
        return {
            "shard": self.shard_id,
            "root_ready": self.result_slot.ready,
            "value": self.result_slot.value,
            "finish_time": self.interp._finish_time,
            "time": machine.time,
            "parked": machine._parked_count,
            "output": list(machine.output),
            "out_tags": list(machine._out_tags),
            "stats": machine.stats.snapshot(),
            "eu_busy": list(machine.eu_busy_ns),
            "su_busy": list(machine.su_busy_ns),
            "events": (None if tracer is None
                       else [dict(e) for e in tracer.events]),
        }
