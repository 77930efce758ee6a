"""Discrete-event simulation of the EARTH-MANNA multiprocessor.

Each node has an Execution Unit (EU) running one fiber at a time from a
ready queue, and a Synchronization Unit (SU) servicing remote requests
(paper Section 5.1/Figure 9).  Remote memory operations are split-phase:
the EU pays an *issue* cost and continues; the request crosses the
network (one-way latency), is serviced by the target SU (serialized --
SU contention is modeled), and the reply fulfills the :class:`Slot`
that ``issue`` returned and consumers synchronize on.

Fibers are Python generators that yield exactly one thing -- the
:class:`Slot` they are blocked on -- and only when it is not ready (the
EU switches to another ready fiber; the slot's value is sent in on
resume; a fiber that yields a ready slot gets its value straight back).
Everything that never blocks is a plain call made from inside the
running slice, whose EU-local time is ``machine.clock[0]``, set when
the slice starts and read back when the fiber parks or finishes:

* ``machine.clock[0] += ns`` -- occupy the EU;
* ``machine.issue(kind, target_node, words, operation, label[, addr[,
  post]])`` -- start an operation (``kind`` in
  read/write/blkmov/shared/malloc).  ``operation`` is a value naming
  the side effect; wherever it takes effect -- the local fast path,
  the target SU, another shard's machine -- the machine hands it to
  ``Machine.apply(operation)``.  One that completes inside the call
  (target on the issuing node, ``malloc``, remote-cache hit) *returns
  its value*; only one that goes in flight gets a :class:`Slot`, built
  by the machine with ``label`` and the delivery hook ``post``,
  returned (``type(r) is Slot``) and fulfilled by the reply.  The
  interpreter installs the applier that gives the engines' operation
  tuples their meaning (:mod:`repro.earth.operations`); a bare
  machine's default applier just calls ``operation()``.  ``addr`` is
  the touched global address (feeds the remote-data cache; optional);
* ``machine.spawn(fiber)`` -- put a new fiber on its node's ready queue;
* ``machine.signal(slot, value)`` -- fulfill a slot from the running
  fiber's node (a call's result; pays the return network leg when the
  slot is consumed on another node);
* ``machine.print(text)`` -- append one line of program output.

These advance the slice clock and schedule events; they never run a
fiber.  Invariant: a fiber runs only inside ``_execute``, entered only
from the event pump's EU runner (``_run``) and never re-entered, so
"the running slice" is one fiber machine-wide; an entry point called
with no slice running raises ``SimulatorError``.

A fiber performing a *synchronous* remote operation issues and
immediately waits -- reproducing Table I's sequential cost; back-to-back
issues without waits reproduce the pipelined cost.

Causality note: a running fiber executes ahead of the global event clock
until it blocks; its *local* memory effects apply immediately while
cross-node effects are applied by SU events in timestamp order.  Under
the EARTH-C non-interference contract (no concurrent conflicting access
to ordinary memory) the observable behaviour is unaffected.

Deterministic event order (the sharding contract)
-------------------------------------------------

The event heap is keyed by ``(time, key)`` where ``key`` is an
*intrinsic* tuple naming the event -- never a global insertion counter.
Each event class carries enough coordinates (nodes, channel sequence
numbers, attempt counts) to make every key unique machine-wide, and
every event is scheduled at a ``(time, key)`` no smaller than the event
being processed, so the pop order equals the globally sorted order.
That property is what makes multi-process sharding
(:mod:`repro.shard`) bit-identical to this single-process machine: each
shard pops the same sub-sequence of the same totally ordered event
stream, and merging per-shard traces by ``(time, key)`` reconstructs
the single-process order exactly.  For the same reason fiber ids are
node-striped (assigned from the *spawning* node's counter), channel
sequence numbers are always on, and every effect that crosses nodes is
delayed by at least one network latency -- including call returns
(``read_one_way_ns``) and third-party cache invalidations
(``rcache_inval_ns``).

A heap entry is ``(time, key, seq, a, b)``.  ``key[0]`` is the event
class (an ``_EV_*`` rank), and the pump dispatches on it through one
handler table built per machine, as ``on[key[0]](a, b, time)`` -- no
closure per event.  ``seq``, a push counter, only breaks ties between
duplicate ``(time, key)`` runner polls, so payloads are never compared.

Remote-data cache: with ``MachineParams.rcache_capacity > 0`` each node
keeps a software cache of remote lines (:mod:`repro.earth.rcache`).  A
remote scalar read whose address hits the cache completes at the EU in
``rcache_hit_ns`` without touching the network; a miss rides the normal
split-phase path, snapshots the line when the read's side effect
applies at the target, and installs it when the *reply* reaches the
reader.  Writes invalidate write-through: the issuing node drops its
own copies at issue time (and blocks installs of the written line until
its write completes), and every other holder drops its copy
``rcache_inval_ns`` after the store's side effect lands in global
memory -- the invalidation message crossing the network.

One request path
----------------

A split-phase request (issue, network leg, SU service, reply) is
written once: ``_send_request`` -> ``_send`` -> ``_serve`` -> ``_reply``
-> ``_complete``, on one :class:`_PendingOp` per request, whether or
not a fault plan is attached and whether or not the target lives in
this process.  Its fault steps are each guarded by ``self.faults is
not None``: a timeout per send (``MachineParams.retry_timeout_ns``,
exponential backoff ``retry_backoff``, at most ``retry_max_attempts``
sends) that re-sends lost requests or replies; per-leg drops and
jitter; target stalls and SU slowdown; exactly-once application at
the target SU (duplicate requests only re-emit the reply, duplicate
replies are discarded at the origin); and in-order application per
channel (a request that overtook a lost predecessor parks, and replies
after its own one-way latency once the predecessor drains it -- else a
dropped write retried after a later read of the same location would
leak a stale value; the clean network keeps that order by timing
alone).  Retried sends do not re-occupy the issuing EU -- the paper's
runtime charges the EU the issue cost once.  Leg fates are keyed by
``(origin, target, chan_seq, attempt)`` so every shard computes the
same drops and jitter for the legs it owns.  The shard port is tested
where a leg leaves the process (``_send``, ``_reply``).

Each cross-node event key is built in exactly one method, which the
request path and the shard worker call: ``_at_arrival``, ``_at_reply``,
``deliver_ret`` and ``deliver_inval``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.earth.memory import GlobalMemory
from repro.earth.params import MachineParams
from repro.earth.rcache import RemoteCache, _Fill
from repro.earth.stats import MachineStats
from repro.errors import SimulatorError

if TYPE_CHECKING:  # pragma: no cover
    from repro.earth.faults import FaultPlan
    from repro.obs.trace import Tracer

# Event-class ranks of the intrinsic heap keys.  The EU runner ranks
# *highest*: it is the one event class legitimately scheduled at the
# current instant while another same-time event is being processed
# (a reply delivered at t readies a fiber whose EU slice also starts at
# t), and ranking it last keeps the pop order equal to the sorted
# order.  All other classes are only ever scheduled strictly in the
# future (network legs, timeouts, return legs, invalidation delays).
_EV_ARRIVE = 1   # request arrival at the target SU
_EV_REPLY = 2    # reply delivery at the origin
_EV_TIMEOUT = 3  # retry timeout at the origin
_EV_RET = 4      # cross-node call-return delivery
_EV_INVAL = 5    # delayed cache invalidation firing at a holder
_EV_RUN = 9      # EU runner (at most one pending per node)


_NO_SLICE = "Machine.%s() called with no fiber slice running"

#: The operation names ``Machine.issue`` takes.
_OPS = frozenset(("read", "write", "blkmov", "malloc", "shared"))


def _call_operation(operation):
    """The default applier: the operation is itself the effect."""
    return operation()


class Slot:
    """A split-phase synchronization slot."""

    __slots__ = ("ready", "value", "waiters", "label", "trace", "node",
                 "post")

    def __init__(self, label: str = "", post: Optional[Callable] = None):
        self.ready = False
        self.value = None
        self.waiters: List["Fiber"] = []
        self.label = label
        #: ``(op_id, origin_node)`` of the traced split-phase operation
        #: this slot completes; ``None`` unless tracing is enabled.
        self.trace: Optional[Tuple[object, int]] = None
        #: The node consuming the value.  A fulfill from a *different*
        #: node pays one network latency (the return leg of a remote
        #: call); ``None`` means deliver instantly wherever fulfilled
        #: (local slots, join counters, reply slots fulfilled at their
        #: own origin).
        self.node: Optional[int] = None
        #: Optional origin-side hook applied to the value at delivery
        #: (a pulled blkmov writes its destination block here).
        self.post = post

    def __repr__(self) -> str:
        state = "ready" if self.ready else "pending"
        return f"Slot({self.label!r}, {state})"


class JoinCounter:
    """Fulfills its slot when ``remaining`` child fibers have finished."""

    __slots__ = ("remaining", "slot")

    def __init__(self, count: int):
        self.remaining = count
        self.slot = Slot("join")
        if count == 0:
            self.slot.ready = True

    def child_done(self, machine: "Machine", time: float) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            machine.fulfill(self.slot, None, time)


class _PendingOp:
    """One split-phase request, from issue to the reply at its origin.

    Under a fault plan the object itself is the target SU's dedup table
    entry: ``applied`` flips when the side effect runs (retries of an
    applied op only re-send the reply), ``completed`` flips when the
    first reply reaches the origin (later replies are discarded).  In a
    sharded run the origin and target shards each hold their own
    record: the origin's carries the slot, timeout and attempt state;
    the target's carries the dedup/channel state and the shipped
    operation."""

    __slots__ = ("op", "origin", "target", "words", "operation", "slot",
                 "op_id", "attempts", "applied", "completed", "value",
                 "chan_seq", "addr", "reply_seq", "one_way", "su_time")

    def __init__(self, op: str, origin: int, target: int, words: int,
                 operation: object, slot: Optional["Slot"],
                 op_id: Optional[object], chan_seq: int, leg: tuple,
                 addr: Optional[int] = None):
        self.op = op
        self.origin = origin
        self.target = target
        self.words = words
        self.operation = operation
        #: The slot the reply fulfils at the origin (``None`` for an
        #: invoke token, and on a target shard's record).
        self.slot = slot
        self.op_id = op_id
        #: Position in the (origin, target) channel: the SU applies
        #: requests from one origin in this order.
        self.chan_seq = chan_seq
        #: The network latency of this request's legs (its reply reuses
        #: it) and its SU service time, from the machine's ``_legs`` row
        #: ``(one_way, su_time, su_per_word)`` for ``op``.
        self.one_way, su_time, su_per_word = leg
        self.su_time = su_time + su_per_word * words
        self.addr = addr
        self.attempts = 0
        self.applied = False
        self.completed = False
        self.value = None
        self.reply_seq = 0

    def __repr__(self) -> str:
        state = ("done" if self.completed
                 else "applied" if self.applied else "in-flight")
        return (f"_PendingOp({self.op} {self.origin}->{self.target}, "
                f"attempt {self.attempts}, {state})")


class Fiber:
    """One EARTH fiber: a generator plus scheduling state.

    The id is assigned by the machine when the fiber is spawned --
    ``spawning_node + num_nodes * k`` for the spawner's k-th spawn --
    so ids are unique machine-wide yet depend only on per-node spawn
    order (identical across shard partitionings)."""

    __slots__ = ("gen", "node", "name", "done", "on_done", "id",
                 "resume_slot", "spawn_desc")

    def __init__(self, gen, node: int, name: str = "fiber"):
        self.gen = gen
        self.node = node
        self.name = name
        self.done = False
        self.on_done: List[Callable[["Machine", float], None]] = []
        self.id: Optional[int] = None
        #: The slot this fiber parked on; its value is delivered into the
        #: generator when the fiber resumes.
        self.resume_slot: Optional["Slot"] = None
        #: Picklable recipe for rebuilding this fiber's generator on
        #: another shard (set by engines on placed-call fibers); a
        #: fiber without one cannot cross a shard boundary.
        self.spawn_desc: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"Fiber#{self.id}({self.name}@{self.node})"


class Machine:
    """The simulated multiprocessor."""

    def __init__(self, num_nodes: int,
                 params: Optional[MachineParams] = None,
                 strict_nil_reads: bool = False,
                 tracer: Optional["Tracer"] = None,
                 faults: Optional["FaultPlan"] = None):
        self.params = params or MachineParams()
        self.memory = GlobalMemory(num_nodes)
        self.num_nodes = num_nodes
        self.stats = MachineStats()
        self.strict_nil_reads = strict_nil_reads
        self.tracer = tracer
        self.faults = faults
        if faults is not None:
            faults.bind(num_nodes)
        self.rcache: Optional[RemoteCache] = None
        if self.params.rcache_capacity > 0 and num_nodes > 1:
            self.rcache = RemoteCache(
                num_nodes, self.memory, self.stats,
                self.params.rcache_capacity,
                self.params.rcache_line_words, tracer)
            self.rcache.machine = self
            self.memory.rcache = self.rcache
        self.time = 0.0
        self.output: List[str] = []
        # Always-on utilization aggregates (one float add per EU fiber
        # slice / SU service -- cheap enough to keep unconditionally).
        self.eu_busy_ns = [0.0] * num_nodes
        self.su_busy_ns = [0.0] * num_nodes
        #: Shard port: when set, effects targeting nodes the port does
        #: not own are shipped as messages instead of scheduled
        #: locally.  ``None`` in single-process runs (zero overhead
        #: beyond one attribute test per cross-node effect).
        self.port = None
        #: What an issued operation does when it takes effect:
        #: ``apply(operation)`` -> the slot value.  The interpreter
        #: installs :class:`repro.earth.operations.Applier`.
        self.apply: Callable[[object], object] = _call_operation
        #: The running slice's fiber (``None`` between slices) and clock.
        self._slice: Optional[Fiber] = None
        self.clock = [0.0]

        # ``(time, key, seq, a, b)`` entries and their handler per event
        # class (module docstring, "Deterministic event order").
        self._events: List[Tuple[float, tuple, int, object, object]] = []
        self._seq = count()
        self._on = {_EV_ARRIVE: self._serve, _EV_REPLY: self._complete,
                    _EV_TIMEOUT: self._timeout, _EV_RET: self.fulfill,
                    _EV_INVAL: self._fire_inval, _EV_RUN: self._run}
        params = self.params
        su = params.su_service_ns
        #: ``op -> (one_way, su_time, su_per_word)``: a request's network
        #: latency (its reply reuses it) and its SU service time.  The
        #: invoke token of a spawn rides the network like a read-sized
        #: request (keeps every cross-node effect -- retried spawns
        #: included -- at least one network latency after the event that
        #: produced it, the shard-window bound).
        self._legs = {
            "read": (params.one_way_latency("read"), su, 0.0),
            "write": (params.one_way_latency("write"), su, 0.0),
            "blkmov": (params.one_way_latency("blkmov"), su,
                       params.su_blkmov_per_word_ns),
            "spawn": (params.read_one_way_ns, su, 0.0)}
        self._ready: List[List[Tuple[float, int, Fiber]]] = [
            [] for _ in range(num_nodes)]
        self._running = [False] * num_nodes
        # Earliest pending EU-runner start per node (``None`` when no
        # RUN event is outstanding).  A later-start RUN never suppresses
        # an earlier one: _kick schedules an additional earlier event
        # and the superseded entry fires as a harmless poll, so a
        # fiber's wake-up time depends only on its own ``earliest``,
        # never on when add_fiber happened to be called.
        self._run_pending: List[Optional[float]] = [None] * num_nodes
        self._eu_free = [0.0] * num_nodes
        self._su_free = [0.0] * num_nodes
        self._last_fiber: List[Optional[int]] = [None] * num_nodes
        self._parked_count = 0
        # Node-striped fiber-id counters (indexed by spawning node).
        self._fiber_next = [0] * num_nodes
        # Per-(origin, target) channel sequence numbers -- always on:
        # they key arrival/reply events and, under fault injection,
        # drive exactly-once in-order application at the target SU.
        self._chan_next: Dict[Tuple[int, int], int] = {}
        self._chan_applied: Dict[Tuple[int, int], int] = {}
        self._chan_buffer: Dict[Tuple[int, int],
                                Dict[int, "_PendingOp"]] = {}
        # Per-(dst, src) sequence numbers for cross-node call returns.
        self._ret_next: Dict[Tuple[int, int], int] = {}
        # Per-(holder, line) sequence numbers for invalidation events.
        self._inval_seq: Dict[tuple, int] = {}
        # Cross-shard bookkeeping (empty in single-process runs):
        # operations whose reply will arrive through the port (with no
        # fault plan, dropped at their one reply), and -- under a fault
        # plan, as the dedup table -- target-side records for requests
        # received through the port.
        self._inflight: Dict[Tuple[int, int, int], "_PendingOp"] = {}
        self._remote_served: Dict[Tuple[int, int, int], "_PendingOp"] = {}
        # Event tagging for shard-trace merging (enabled by workers).
        self._tag_events = False
        self._cur_ord: Optional[tuple] = None
        self._out_tags: List[tuple] = []

    # -- event machinery ----------------------------------------------------------

    def _assign_fiber_id(self, spawning_node: int) -> int:
        spawned = self._fiber_next[spawning_node]
        self._fiber_next[spawning_node] = spawned + 1
        return spawning_node + self.num_nodes * spawned

    def add_fiber(self, fiber: Fiber, earliest: float = 0.0,
                  _tag: Optional[tuple] = None) -> None:
        if fiber.id is None:
            fiber.id = self._assign_fiber_id(fiber.node)
        self.stats.fibers_spawned += 1
        if self.tracer is not None:
            self.tracer.emit("fiber_spawn", earliest, fiber.node,
                             fiber=fiber.id, name=fiber.name, _at=_tag)
        heappush(self._ready[fiber.node], (earliest, fiber.id, fiber))
        self._kick(fiber.node, earliest)

    def _kick(self, node: int, at_time: float) -> None:
        if self._running[node] or not self._ready[node]:
            return
        earliest = self._ready[node][0][0]
        start = max(earliest, self._eu_free[node], at_time)
        pending = self._run_pending[node]
        if pending is not None and pending <= start:
            return
        self._run_pending[node] = start
        heappush(self._events,
                 (start, (_EV_RUN, node), next(self._seq), node, None))

    def _pump(self, horizon: Optional[float] = None) -> None:
        events = self._events
        on = self._on
        tag = self._tag_events
        tracer = self.tracer
        while events:
            if horizon is not None and events[0][0] >= horizon:
                break
            time, key, _seq, a, b = heappop(events)
            if time > self.time:
                self.time = time
            if tag:
                self._cur_ord = (time, key)
                if tracer is not None:
                    tracer.ord = self._cur_ord
            on[key[0]](a, b, time)

    def run(self) -> None:
        """Process events until the machine is quiescent."""
        self._pump()
        if self._parked_count:
            raise SimulatorError(
                f"deadlock: {self._parked_count} fiber(s) blocked forever "
                f"at t={self.time:.0f}ns")

    def run_until(self, horizon: float) -> None:
        """Process events with time strictly below ``horizon`` (the
        shard worker's window step)."""
        self._pump(horizon)

    def next_event_time(self) -> Optional[float]:
        return self._events[0][0] if self._events else None

    def enable_event_tags(self) -> None:
        """Tag every trace event and output line with the ``(time,
        key)`` of the event that produced it, so a shard merge can
        interleave per-shard streams into the single-process order.
        Pre-run emissions (the root fiber spawn) sort before time 0."""
        self._tag_events = True
        self._cur_ord = (-1.0, ())
        if self.tracer is not None:
            self.tracer.ord = self._cur_ord

    # -- EU execution -------------------------------------------------------------

    def _run(self, at, fiber: Optional[Fiber], _time: float) -> None:
        """The EU runner (``_EV_RUN``).  ``(node, None)`` is ``_kick``'s
        poll: start the node's first ready fiber if it may start now.
        ``(ready_at, fiber)`` is ``fulfill``'s resume of a sole waiter
        that never visited the ready heap, equivalent to a heappush of
        ``(ready_at, fiber.id, fiber)`` and then the poll.  It falls
        back to exactly that if the node started running, an
        earlier-ranked fiber arrived, or the EU became busy past this
        event's time meanwhile (an earlier RUN can interleave)."""
        node = at if fiber is None else fiber.node
        self._run_pending[node] = None
        ready = self._ready[node]
        if fiber is not None:
            if not (self._running[node] or self._eu_free[node] > self.time
                    or (ready and ready[0][:2] < (at, fiber.id))):
                # start = max(ready_at, eu_free, self.time) equals
                # self.time: the event fired at max(ready_at, eu_free)
                # and the eu_free guard rules out later advancement.
                self._execute(fiber)
                return
            heappush(ready, (at, fiber.id, fiber))
        if self._running[node] or not ready:
            return
        earliest, _fid, fiber = ready[0]
        start = max(earliest, self._eu_free[node], self.time)
        if start > self.time:
            self._kick(node, start)
            return
        heappop(ready)
        self._execute(fiber)

    def _execute(self, fiber: Fiber) -> None:
        """Run one slice, starting now: resume the fiber until it
        yields the slot it is blocked on, or finishes."""
        if self._slice is not None:
            raise SimulatorError(
                f"{fiber!r} resumed inside the slice of {self._slice!r}")
        node = fiber.node
        self._running[node] = True
        t = self.time
        if self._last_fiber[node] is not None \
                and self._last_fiber[node] != fiber.id:
            t += self.params.ctx_switch_ns
            self.stats.context_switches += 1
        self._last_fiber[node] = fiber.id
        send_value = None
        if fiber.resume_slot is not None:
            send_value = fiber.resume_slot.value
            fiber.resume_slot = None
        tracer = self.tracer
        clock = self.clock
        clock[0] = t0 = t
        if self.rcache is not None:
            self.rcache.now = t
        if tracer is not None:
            tracer.emit("fiber_start", t, node, fiber=fiber.id,
                        name=fiber.name)
        self._slice = fiber
        try:
            slot: Optional[Slot] = fiber.gen.send(send_value)
            while slot.ready:  # the fiber did not test before yielding
                slot = fiber.gen.send(slot.value)
        except StopIteration:
            slot = None
        finally:
            self._slice = None
        t = clock[0]
        self.eu_busy_ns[node] += t - t0
        if slot is None:
            fiber.done = True
            if tracer is not None:
                tracer.emit("fiber_done", t, node, fiber=fiber.id,
                            name=fiber.name)
                tracer.emit("eu_span", t0, node, dur=t - t0,
                            fiber=fiber.id, name=fiber.name)
            for callback in fiber.on_done:
                callback(self, t)
        else:
            slot.waiters.append(fiber)
            fiber.resume_slot = slot
            self._parked_count += 1
            if tracer is not None:
                tracer.emit("fiber_block", t, node, fiber=fiber.id,
                            name=fiber.name, slot=slot.label)
                tracer.emit("eu_span", t0, node, dur=t - t0,
                            fiber=fiber.id, name=fiber.name)
        self._eu_free[node] = t
        self._running[node] = False
        if self._ready[node]:
            self._kick(node, t)

    # -- entry points of the running slice ------------------------------------------

    def print(self, text: str) -> None:
        """Append one line of program output."""
        if self._slice is None:
            raise SimulatorError(_NO_SLICE % "print")
        if self._tag_events:
            self._out_tags.append((self._cur_ord, len(self.output)))
        self.output.append(text)

    def spawn(self, child: Fiber) -> None:
        """Put ``child`` on its node's ready queue (one network
        latency from now when that is another node)."""
        if self._slice is None:
            raise SimulatorError(_NO_SLICE % "spawn")
        node = self._slice.node
        params = self.params
        self.clock[0] = t = self.clock[0] + params.spawn_ns
        if child.id is None:
            child.id = self._assign_fiber_id(node)
        if child.node == node:
            self.add_fiber(child, earliest=t)
        elif self.faults is not None:
            # The invoke token rides the data operations' reliable
            # channel, so the callee cannot start before earlier
            # same-channel split-phase writes applied (the clean network
            # orders them by timing alone; a dropped write retried late
            # would let the callee read uninitialized memory).
            self._send_request(node, t, "spawn", child.node, child, None,
                               0)
        elif self.port is not None and not self.port.owns(child.node):
            self.port.send_spawn(child, t + params.read_one_way_ns)
        else:
            # The invoke token crosses the network like a read-sized
            # request.
            self.add_fiber(child, earliest=t + params.read_one_way_ns)

    def issue(self, op: str, target: int, words: int, operation: object,
              label: str, addr: Optional[int] = None,
              post: Optional[Callable[[object], object]] = None):
        """Issue one operation from the running fiber and charge its
        EU.  Returns its value when it took effect inside the call
        (target on this node, any ``malloc``, a remote-cache hit), else
        the :class:`Slot` the reply will fulfil, built here with
        ``label`` and ``post``.  ``addr`` (read / write address or blkmov
        *destination*) only feeds the remote-data cache; optional."""
        if self._slice is None:
            raise SimulatorError(_NO_SLICE % "issue")
        if op not in _OPS:
            raise SimulatorError(f"unknown op {op}")
        node = self._slice.node
        params = self.params
        stats = self.stats
        clock = self.clock
        t = clock[0]
        here = target == node  # does it take effect on this node, now?
        if op == "shared":
            stats.shared_ops += 1
            clock[0] = t = t + params.shared_op_ns
            if not here:
                slot = Slot(label)
                self._send_request(node, t, "write", target, operation,
                                   slot, 1)
                return slot
        elif op == "malloc":
            cost = params.malloc_ns
            if not here:
                # Remote allocation stays instantaneous at the origin:
                # it bumps the origin's slice of the target's arena
                # address space (repro.earth.memory), so no message is
                # needed even when the target lives on another shard.
                cost += params.remote_malloc_extra_ns
                here = True
            clock[0] = t + cost
        elif here:  # read / write / blkmov: a runtime call
            clock[0] = t = t + params.local_op_cost(op, words)
            if op == "read":
                stats.local_reads += 1
            elif op == "write":
                stats.local_writes += 1
            else:
                stats.local_blkmovs += 1
            if self.rcache is not None:
                self.rcache.now = t
        if here:
            return self.apply(operation)
        # read / write / blkmov on another node
        rcache = self.rcache
        if rcache is not None and addr:
            rcache.now = t
            if op == "read":
                hit, value = rcache.lookup(node, addr)
                if hit:
                    # Served entirely at the EU: no issue cost, no
                    # network legs, no remote_reads count -- the cache
                    # removed the message.
                    clock[0] = t = t + params.rcache_hit_ns
                    stats.rcache_hits += 1
                    if self.tracer is not None:
                        self.tracer.emit(
                            "cache_hit", t, node, target=target,
                            addr=addr, site=self.tracer.current_site)
                    return value
                stats.rcache_misses += 1
                operation = ("fill", node, addr, operation)
            else:
                # write / blkmov destination: drop the issuing node's
                # own stale copies before the fiber can read them back,
                # and hold off installs of in-flight stale fills until
                # this write's reply confirms completion.
                rcache.invalidate_node(node, addr, words, at=t)
                rcache.writer_block(node, addr, words)
        clock[0] = t = t + params.issue_cost(op, words)
        if op == "read":
            stats.remote_reads += 1
        elif op == "write":
            stats.remote_writes += 1
        else:
            stats.remote_blkmovs += 1
            stats.remote_blkmov_words += words
        slot = Slot(label, post)
        self._send_request(node, t, op, target, operation, slot, words,
                           addr=addr)
        return slot

    def _at_arrival(self, pending: "_PendingOp", arrival: float,
                    attempt: int) -> None:
        """Schedule one attempt's arrival at the target SU: the one
        place its event key is built (the request path and the shard
        worker)."""
        heappush(self._events,
                 (arrival, (_EV_ARRIVE, pending.target, pending.origin,
                            pending.chan_seq, attempt),
                  next(self._seq), pending, None))

    def _at_reply(self, pending: "_PendingOp", value, reply_at: float,
                  reply_seq: int) -> None:
        """Schedule one reply's delivery at the origin: the one place
        its event key is built (the request path and the shard
        worker)."""
        heappush(self._events,
                 (reply_at, (_EV_REPLY, pending.origin, pending.target,
                             pending.chan_seq, reply_seq),
                  next(self._seq), pending, value))

    # -- the request path -----------------------------------------------------------

    def _send_request(self, origin: int, t: float, op: str, target: int,
                      operation: object, slot: Optional[Slot], words: int,
                      addr: Optional[int] = None) -> None:
        """Open one split-phase request as a :class:`_PendingOp` and
        send its first attempt.  A request whose target sits behind the
        shard port leaves its record in ``_inflight`` for the reply."""
        tracer = self.tracer
        op_id = None
        if tracer is not None:
            op_id = tracer.next_op_id(origin)
            tracer.emit("issue", t, origin, op=op, target=target,
                        words=words, site=tracer.current_site, id=op_id)
            if slot is not None:
                slot.trace = (op_id, origin)

        chan = (origin, target)
        chan_seq = self._chan_next.get(chan, 1)
        self._chan_next[chan] = chan_seq + 1
        pending = _PendingOp(op, origin, target, words, operation, slot,
                             op_id, chan_seq, self._legs[op], addr)
        if self.port is not None and not self.port.owns(target):
            self._inflight[(origin, target, chan_seq)] = pending
        self._send(pending, t)

    def _send(self, pending: "_PendingOp", t: float) -> None:
        """Send one attempt of ``pending`` at time ``t``; under a fault
        plan, arm its timeout and draw the leg's fate first."""
        faults = self.faults
        tracer = self.tracer
        pending.attempts += 1
        attempt = pending.attempts
        dropped = False
        latency = pending.one_way
        if faults is not None:
            params = self.params
            deadline = t + params.retry_timeout_ns \
                * (params.retry_backoff ** (attempt - 1))
            heappush(self._events,
                     (deadline, (_EV_TIMEOUT, pending.origin, pending.target,
                                 pending.chan_seq, attempt),
                      next(self._seq), pending, attempt))
            dropped, extra = faults.leg("request", pending.origin,
                                        pending.target, pending.chan_seq,
                                        attempt)
            latency += extra
        if tracer is not None:
            tracer.emit("net_send", t, pending.origin, op=pending.op,
                        dst=pending.target, latency=latency,
                        words=pending.words, id=pending.op_id)
        if dropped:
            self.stats.net_drops += 1
            if tracer is not None:
                tracer.emit("net_drop", t, pending.origin,
                            op=pending.op, leg="request",
                            dst=pending.target, id=pending.op_id)
            return
        arrival = t + pending.one_way
        if faults is not None:
            arrival = faults.stall_until(pending.target, arrival + extra)
        if self.port is not None and not self.port.owns(pending.target):
            self.port.send_request(
                op=pending.op, origin=pending.origin,
                target=pending.target, words=pending.words,
                chan_seq=pending.chan_seq, attempt=attempt,
                arrival=arrival, operation=pending.operation,
                op_id=pending.op_id)
            return
        self._at_arrival(pending, arrival, attempt)

    def _timeout(self, pending: "_PendingOp", attempt: int,
                 deadline: float) -> None:
        """Attempt ``attempt`` of ``pending`` timed out: re-send it,
        unless a reply already completed it."""
        if pending.completed:
            return
        params = self.params
        stats = self.stats
        tracer = self.tracer
        stats.op_timeouts += 1
        if tracer is not None:
            tracer.emit("op_timeout", deadline, pending.origin,
                        op=pending.op, target=pending.target,
                        attempt=attempt, id=pending.op_id)
        if pending.attempts >= params.retry_max_attempts:
            raise SimulatorError(
                f"split-phase {pending.op} from node {pending.origin} to "
                f"node {pending.target} lost after {pending.attempts} "
                f"attempts (t={deadline:.0f}ns)")
        stats.op_retries += 1
        if tracer is not None:
            tracer.emit("op_retry", deadline, pending.origin,
                        op=pending.op, target=pending.target,
                        attempt=pending.attempts + 1, id=pending.op_id)
        self._send(pending, deadline)

    def recv_remote_request(self, op: str, origin: int, target: int,
                            words: int, chan_seq: int, attempt: int,
                            arrival: float, operation: object,
                            op_id: Optional[object]) -> None:
        """Target-side entry for a request that crossed shards (called
        by the shard worker at message application): find or build the
        target's record -- kept as the dedup table only under a fault
        plan, the one case a request can arrive twice -- and schedule
        its arrival."""
        key = (origin, target, chan_seq)
        pending = self._remote_served.get(key)
        if pending is None:
            pending = _PendingOp(op, origin, target, words, operation,
                                 None, op_id, chan_seq, self._legs[op])
            if self.faults is not None:
                self._remote_served[key] = pending
        self._at_arrival(pending, arrival, attempt)

    def _serve(self, pending: "_PendingOp", _none, arrival: float) -> None:
        """Target-SU half of the request path (``_EV_ARRIVE``): serve
        one arrived request.  Under a fault plan its side effect applies
        exactly once and in channel order."""
        target = pending.target
        faults = self.faults
        tracer = self.tracer
        su_start = max(arrival, self._su_free[target])
        service_ns = pending.su_time
        if faults is not None:
            service_ns *= faults.su_scale(target, su_start)
        su_done = su_start + service_ns
        self._su_free[target] = su_done
        self.su_busy_ns[target] += service_ns
        if tracer is not None:
            tracer.emit("net_recv", arrival, target, op=pending.op,
                        src=pending.origin, id=pending.op_id)
            tracer.emit("su_span", su_start, target, dur=service_ns,
                        op=pending.op, queue_wait=su_start - arrival,
                        src=pending.origin, id=pending.op_id)
        if faults is None:
            self._apply_pending(pending, su_done)
            self._reply(pending, su_done)
            return
        stats = self.stats
        if pending.applied:
            # Idempotent-op dedup: a retried request whose original was
            # already serviced only re-emits the reply.
            stats.dedup_replays += 1
            if tracer is not None:
                tracer.emit("op_dedup", su_done, target, op=pending.op,
                            src=pending.origin, id=pending.op_id)
            self._reply(pending, su_done)
            return
        chan = (pending.origin, target)
        if pending.chan_seq > self._chan_applied.get(chan, 0) + 1:
            # Overtook a lost predecessor: park until the channel
            # catches up (applying now could let e.g. a read see memory
            # from before a dropped, not-yet-retried write).
            stats.ooo_holds += 1
            if tracer is not None:
                tracer.emit("op_hold", su_done, target, op=pending.op,
                            src=pending.origin, chan_seq=pending.chan_seq,
                            id=pending.op_id)
            self._chan_buffer.setdefault(chan, {})[pending.chan_seq] \
                = pending
            return
        buffer = self._chan_buffer.get(chan, {})
        while pending is not None:
            self._apply_pending(pending, su_done)
            self._chan_applied[chan] = pending.chan_seq
            self._reply(pending, su_done)
            # A successor parked behind this request applies next, and
            # replies after its own one-way latency.
            pending = buffer.pop(pending.chan_seq + 1, None)

    def _apply_pending(self, pending: "_PendingOp", at: float) -> None:
        """Apply one request's side effect at the target SU."""
        if self.rcache is not None:
            self.rcache.now = at
        if pending.op == "spawn":
            pending.value = self.add_fiber(pending.operation, earliest=at)
        else:
            pending.value = self.apply(pending.operation)
        pending.applied = True

    def _reply(self, pending: "_PendingOp", at: float) -> None:
        """Send the reply/ack leg of one served request, ``one_way``
        after ``at`` (under a fault plan it may be lost, jittered or
        stalled)."""
        faults = self.faults
        pending.reply_seq += 1
        reply_seq = pending.reply_seq
        reply_at = at + pending.one_way
        if faults is not None:
            dropped, extra = faults.leg("reply", pending.origin,
                                        pending.target, pending.chan_seq,
                                        reply_seq)
            if dropped:
                self.stats.net_drops += 1
                if self.tracer is not None:
                    self.tracer.emit("net_drop", at, pending.target,
                                     op=pending.op, leg="reply",
                                     dst=pending.origin, id=pending.op_id)
                return
            reply_at = faults.stall_until(pending.origin, reply_at + extra)
        value = pending.value
        if self.port is not None and not self.port.owns(pending.origin):
            self.port.send_reply(
                origin=pending.origin, target=pending.target,
                chan_seq=pending.chan_seq, value=value, reply_at=reply_at,
                reply_seq=reply_seq)
            return
        self._at_reply(pending, value, reply_at, reply_seq)

    def deliver_remote_reply(self, origin: int, target: int,
                             chan_seq: int, value, reply_at: float,
                             reply_seq: int) -> None:
        """Origin-side entry for a reply that crossed shards (called by
        the shard worker at message application).  Under a fault plan
        the record stays in ``_inflight``: a re-sent reply can still
        arrive, and it must count as a duplicate.  With no plan this is
        the one reply, and the record goes."""
        key = (origin, target, chan_seq)
        if self.faults is None:
            pending = self._inflight.pop(key, None)
        else:
            pending = self._inflight.get(key)
        if pending is None:  # pragma: no cover - protocol error
            raise SimulatorError(
                f"reply for unknown operation {origin}->{target} "
                f"seq {chan_seq}")
        self._at_reply(pending, value, reply_at, reply_seq)

    def _complete(self, pending: "_PendingOp", value,
                  reply_at: float) -> None:
        """Origin half of the request path: the first reply completes
        the operation; a later one is a duplicate."""
        if pending.completed:
            self.stats.dup_replies += 1
            return
        pending.completed = True
        if self.faults is not None:
            self.stats.op_attempts_histogram[str(pending.attempts)] += 1
        if self.rcache is not None and pending.addr \
                and pending.op in ("write", "blkmov"):
            self.rcache.writer_unblock(pending.origin, pending.addr,
                                       pending.words)
        if pending.slot is not None:
            self.fulfill(pending.slot, value, reply_at)
        elif self.tracer is not None:
            self.tracer.emit("fulfill", reply_at, pending.origin,
                             id=pending.op_id)

    # -- slots -----------------------------------------------------------------------

    def signal(self, slot: Slot, value) -> None:
        """Fulfill ``slot`` from the running fiber.  Same-node (or
        unpinned) slots complete instantly; a slot consumed on another
        node pays one network latency -- the return leg of a remote
        call -- keyed per (dst, src) so delivery order is intrinsic."""
        if self._slice is None:
            raise SimulatorError(_NO_SLICE % "signal")
        node = self._slice.node
        t = self.clock[0]
        dst = slot.node
        if dst is None or dst == node:
            self.fulfill(slot, value, t)
            return
        at = t + self.params.read_one_way_ns
        key = (dst, node)
        seq = self._ret_next.get(key, 0)
        self._ret_next[key] = seq + 1
        if self.port is not None and not self.port.owns(dst):
            self.port.send_ret(slot, value, at, dst, node, seq)
            return
        self.deliver_ret(slot, value, at, dst, node, seq)

    def deliver_ret(self, slot: Slot, value, at: float, dst: int,
                    src: int, seq: int) -> None:
        """Schedule a call-return delivery: the one place its event key
        is built (the shard worker calls it for a return that arrived
        through the port, its slot already resolved)."""
        heappush(self._events,
                 (at, (_EV_RET, dst, src, seq), next(self._seq), slot, value))

    def fulfill(self, slot: Slot, value, time: float) -> None:
        if slot.ready:
            raise SimulatorError(f"slot {slot!r} fulfilled twice")
        if self.rcache is not None and type(value) is _Fill:
            value = self.rcache.install(value, time)
        if slot.post is not None:
            value = slot.post(value)
        slot.ready = True
        slot.value = value
        tracer = self.tracer
        if tracer is not None and slot.trace is not None:
            tracer.emit("fulfill", time, slot.trace[1], id=slot.trace[0])
        waiters = slot.waiters
        if not waiters:
            return
        if len(waiters) == 1:
            # Fast path: the sole waiter resumes on an idle node with an
            # empty ready queue -- skip the heap round-trip and schedule
            # the resume directly.  Start time matches what _kick would
            # compute (earliest == time, at_time == time).
            fiber = waiters[0]
            node = fiber.node
            if not self._running[node] \
                    and self._run_pending[node] is None \
                    and not self._ready[node]:
                self._parked_count -= 1
                if tracer is not None:
                    tracer.emit("fiber_resume", time, node,
                                fiber=fiber.id, slot=slot.label)
                waiters.clear()
                eu_free = self._eu_free[node]
                start = time if time >= eu_free else eu_free
                self._run_pending[node] = start
                heappush(self._events, (start, (_EV_RUN, node),
                                        next(self._seq), time, fiber))
                return
        self._parked_count -= len(waiters)
        for fiber in waiters:
            heappush(self._ready[fiber.node], (time, fiber.id, fiber))
            self._kick(fiber.node, time)
            if tracer is not None:
                tracer.emit("fiber_resume", time, fiber.node,
                            fiber=fiber.id, slot=slot.label)
        slot.waiters.clear()

    # -- cache invalidation transport ----------------------------------------------

    def send_inval(self, holder: int, key: tuple, t_w: float) -> None:
        """Deliver a third-party invalidation to ``holder``'s cache,
        firing ``rcache_inval_ns`` after the store applied (called by
        the cache's home-side write hook)."""
        at = t_w + self.params.rcache_inval_ns
        seq_key = (holder, key)
        seq = self._inval_seq.get(seq_key, 0)
        self._inval_seq[seq_key] = seq + 1
        if self.port is not None and not self.port.owns(holder):
            self.port.send_inval(holder, key, t_w, at, seq)
            return
        self.deliver_inval(holder, key, t_w, at, seq)

    def deliver_inval(self, holder: int, key: tuple, t_w: float,
                      at: float, seq: int) -> None:
        """Schedule an invalidation's firing at ``holder``: the one
        place its event key is built (the shard worker calls it for one
        that arrived through the port)."""
        heappush(self._events,
                 (at, (_EV_INVAL, holder, key[0], key[1], t_w, seq),
                  next(self._seq), (holder, key), t_w))

    def _fire_inval(self, line: tuple, t_w: float, at: float) -> None:
        """``_EV_INVAL``: the invalidation of ``line`` = ``(holder,
        key)`` for a store applied at ``t_w`` arrives at the holder."""
        self.rcache.fire_inval(line[0], line[1], t_w, at)
