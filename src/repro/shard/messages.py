"""Inter-shard message vocabulary.

Everything that crosses a shard boundary is a plain picklable tuple
``(kind, ...)`` -- no closures, no fibers, no live slots.  The five
kinds mirror the five cross-node effects of the single-process machine
(:mod:`repro.earth.machine`):

=========  ==================================================  =========
kind       payload                                             routed to
=========  ==================================================  =========
``req``    one attempt of a split-phase request on the         target's
           machine's request path, with or without a fault      shard
           plan: ``op, origin, target, words, chan_seq,
           attempt, arrival, operation, op_id``
           (``operation`` is the operation tuple of
           :mod:`repro.earth.operations`; a spawn under a
           fault plan carries the fiber's recipe)
``rep``    one reply/ack leg of a served request:              origin's
           ``origin, target, chan_seq, value, reply_at,         shard
           reply_seq``
``spawn``  a placed call with no fault plan: the fiber's       child
           ``spawn_desc`` recipe (under a fault plan spawns     node's
           ride ``req`` with ``op == "spawn"``)                 shard
``ret``    a call-return delivery fulfilling a                 caller's
           :class:`SlotProxy`                                   shard
``inval``  a remote-cache invalidation                         holder's
                                                                shard
=========  ==================================================  =========

Timing invariant (the barrier's correctness argument): every message's
*effect time* -- request arrival, reply delivery, spawn start, return
delivery, invalidation firing -- is at least
:meth:`~repro.earth.params.MachineParams.shard_window_ns` after the
machine event that produced it.  The window barrier exchanges messages
every ``W`` nanoseconds, so a message generated inside window
``[H - W, H)`` takes effect at or after ``H`` -- applying it at the
``H`` barrier is never late.
"""

from __future__ import annotations

from typing import Tuple


class SlotProxy:
    """Picklable stand-in for a result :class:`~repro.earth.machine.Slot`
    whose real object lives on the spawning shard.

    A cross-shard placed call ships its ``spawn_desc`` with the real
    slot replaced by a proxy; the callee's ``signal(proxy, value)``
    turns into a ``ret`` message carrying ``ref`` back, and the origin
    worker resolves ``ref`` to the real slot before delivery.  Only the
    consuming node (for the return network leg) and the registry key
    cross the boundary.
    """

    __slots__ = ("ref", "node")

    def __init__(self, ref: Tuple[int, int], node: int):
        self.ref = ref
        self.node = node

    def __repr__(self) -> str:
        return f"SlotProxy({self.ref!r}@{self.node})"


def req(**kw) -> tuple:
    """A cross-shard split-phase request: the keywords of
    ``Machine.recv_remote_request``."""
    return ("req", kw)


def rep(**kw) -> tuple:
    """A cross-shard reply/ack leg: the keywords of
    ``Machine.deliver_remote_reply``."""
    return ("rep", kw)


def spawn(desc: tuple, fiber_id: int, name: str, node: int,
          earliest: float, tag) -> tuple:
    """A cross-shard placed call with no fault plan."""
    return ("spawn", desc, fiber_id, name, node, earliest, tag)


def ret(ref: Tuple[int, int], value, at: float, dst: int, src: int,
        seq: int) -> tuple:
    """A call-return delivery for the proxy registered under ``ref``."""
    return ("ret", ref, value, at, dst, src, seq)


def inval(holder: int, key: tuple, t_w: float, at: float,
          seq: int) -> tuple:
    """A remote-cache invalidation for ``holder``'s cache."""
    return ("inval", holder, key, t_w, at, seq)


def effect_time(message: tuple) -> float:
    """When ``message`` becomes a machine event on the receiving
    shard.  The coordinator uses this to skip the barrier horizon past
    dead time: all future events are at or after the minimum of every
    shard's next event and every in-flight message's effect time."""
    kind = message[0]
    if kind == "req":
        return message[1]["arrival"]
    if kind == "rep":
        return message[1]["reply_at"]
    if kind == "spawn":
        return message[5]
    if kind == "ret":
        return message[3]
    return message[4]  # inval
