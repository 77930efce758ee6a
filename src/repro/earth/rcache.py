"""Per-node software cache for remote scalar reads (the paper's §7).

Zhu & Hendren name "caching remote data at the EU" as the follow-on
optimization their EARTH-MANNA runtime did not implement.  This module
supplies it for the simulator: each node keeps a bounded cache of
*lines* of remote memory, and a remote scalar read that hits the cache
completes at the EU in :attr:`MachineParams.rcache_hit_ns` instead of
paying issue cost + two network legs + SU service -- and is *not*
counted as a remote read (the cache genuinely removes the message).

Structure
---------

A line covers ``rcache_line_words`` consecutive words of one home
node's memory, aligned to the line size; a line never spans two nodes
because global addresses are ``node * NODE_SPAN + offset`` and lines
are keyed by ``(home_node, offset // line_words)``.  Every node owns an
independent line map with capacity ``rcache_capacity`` lines, replaced
least-recently-used first (a hit promotes its line).

Coherence (write-through invalidation, message-delayed)
-------------------------------------------------------

All coherence traffic is *physical*: it happens where the data is and
travels at network speed, which is also what lets a sharded run
(:mod:`repro.shard`) reproduce it bit-identically -- every piece of
cache state is touched only by the shard that owns the involved node.

* **Fills.**  A missing remote read snapshots its line at the *home*
  node at the instant the read's side effect applies
  (:meth:`pack_fill`, producing a picklable :class:`_Fill` that also
  carries the read's value), and the snapshot is installed into the
  reader's cache only when the read's *reply* arrives
  (:meth:`install`).  The home records the grant in a directory so
  later stores know whom to invalidate.
* **Stores.**  Every mutation of global memory passes through
  :meth:`GlobalMemory.write_word` / ``write_block``, which call
  :meth:`store_applied`: the home looks up the line's granted holders
  and sends each one an invalidation that fires
  ``rcache_inval_ns`` later (``Machine.send_inval``).  A firing
  invalidation drops the holder's copy only if it was snapped no later
  than the store -- an equal instant counts as stale
  (:meth:`fire_inval`) -- and raises a per-line high-water mark that
  blocks installs of in-flight snapshots that are not newer.
* **The writer itself** gets synchronous treatment, because a fiber
  must read its own writes: its copies of a written line drop at
  *issue* time (:meth:`invalidate_node`) and installs of the line are
  blocked (:meth:`writer_block`) until the write's reply confirms
  completion (:meth:`writer_unblock`).

Between a store applying and its invalidations firing, third-party
holders may serve hits from the pre-store snapshot -- exactly the
relativity a real message-based protocol has.  EARTH-C's
non-interference contract makes such windows unobservable to correct
programs (a read racing a conflicting write is already a data race),
and both the single-process and sharded machines reproduce the same
window to the nanosecond.

The grant directory is pruned only by stores: the home cannot see
remote evictions (that would be free reverse-channel communication),
so a store may send an invalidation to a node that already evicted the
line -- it fires as a no-op, identically in both execution modes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.earth.memory import (FILLER, GlobalMemory, NODE_SPAN,
                                REMOTE_ARENA_BASE, node_of)

if TYPE_CHECKING:  # pragma: no cover
    from repro.earth.machine import Machine
    from repro.earth.stats import MachineStats
    from repro.obs.trace import Tracer

#: Default geometry of the Table III "rcached" configuration: 64 lines
#: of 16 words per node (4 KiB of cached remote data per node at the
#: MANNA's 4-byte words).  The comm optimizer already eliminates most
#: *temporal* reuse of remote scalars, so the wide line is what pays:
#: it captures the spatial locality of tree-node fields allocated
#: together (measured on the Olden set: 4-word lines get zero hits on
#: voronoi, 16-word lines cut its remote reads by ~28%).
DEFAULT_CAPACITY = 64
DEFAULT_LINE_WORDS = 16

_LineKey = Tuple[int, int]


class _Fill:
    """A line snapshot in flight from home to reader, riding a read's
    reply.  Plain picklable data so it can cross shard processes; the
    machine's ``fulfill`` unwraps it at delivery, installing the line
    and handing the carried read value to the slot."""

    __slots__ = ("node", "key", "snap_t", "line", "value")

    def __init__(self, node: int, key: _LineKey, snap_t: float,
                 line: Dict[int, object], value: object = None):
        self.node = node
        self.key = key
        self.snap_t = snap_t
        self.line = line
        self.value = value

    def __repr__(self) -> str:
        return (f"_Fill(node={self.node}, key={self.key}, "
                f"snap_t={self.snap_t}, {len(self.line)} words)")


class RemoteCache:
    """All nodes' remote-read caches plus the home-side grant
    directory.

    One instance serves the whole machine; in a sharded run each worker
    holds its own instance and only ever touches the slices belonging
    to nodes it owns (reader state at the reader, home state at the
    home, writer state at the writer).
    """

    __slots__ = ("num_nodes", "memory", "stats", "tracer", "capacity",
                 "line_words", "now", "machine", "_lines",
                 "_granted", "_inval_hw", "_blocked")

    def __init__(self, num_nodes: int, memory: GlobalMemory,
                 stats: "MachineStats", capacity: int, line_words: int,
                 tracer: Optional["Tracer"] = None):
        if capacity < 1:
            raise ValueError(f"rcache capacity must be >= 1, got "
                             f"{capacity} (0 disables the cache at the "
                             f"machine level)")
        if line_words < 1:
            raise ValueError(f"rcache line_words must be >= 1, got "
                             f"{line_words}")
        self.num_nodes = num_nodes
        self.memory = memory
        self.stats = stats
        self.tracer = tracer
        self.capacity = capacity
        self.line_words = line_words
        #: Current simulated instant, kept fresh by the machine at
        #: every point a side effect can apply; stamps snapshots
        #: (``snap_t``), store times (``t_w``), and trace events.
        self.now = 0.0
        #: Backref for dispatching invalidation messages; attached by
        #: the machine right after construction.
        self.machine: Optional["Machine"] = None
        #: Per-node line map: line key -> (snap_t, {offset: word}).
        self._lines: Tuple[
            "OrderedDict[_LineKey, Tuple[float, Dict[int, object]]]",
            ...] = tuple(OrderedDict() for _ in range(num_nodes))
        #: Home-side grant directory: line key -> nodes a fill was
        #: granted to since the last store of the line.
        self._granted: Dict[_LineKey, Set[int]] = {}
        #: Holder-side high-water mark: (node, key) -> latest store
        #: time whose invalidation has fired there.  In-flight
        #: snapshots older than it must not install.
        self._inval_hw: Dict[Tuple[int, _LineKey], float] = {}
        #: Writer-side install blocks: (node, key) -> number of that
        #: node's own in-flight writes covering the line.
        self._blocked: Dict[Tuple[int, _LineKey], int] = {}

    # -- lookup / fill (the read path) -------------------------------------

    def _key(self, address: int) -> _LineKey:
        return (address // NODE_SPAN,
                (address % NODE_SPAN) // self.line_words)

    def _keys_for(self, address: int, words: int):
        line_words = self.line_words
        offset = address % NODE_SPAN
        home = address // NODE_SPAN
        first = offset // line_words
        last = (offset + words - 1) // line_words
        return [(home, index) for index in range(first, last + 1)]

    def lookup(self, node: int, address: int) -> Tuple[bool, object]:
        """``(hit, value)`` for one word at ``node``'s cache.

        A present line with the requested word missing (the word was
        unmapped when the line was snapped) is a miss; the refill after
        the fresh read replaces the line.
        """
        lines = self._lines[node]
        key = self._key(address)
        entry = lines.get(key)
        if entry is None:
            return False, None
        line = entry[1]
        value = line.get(address % NODE_SPAN, line)
        if value is line:  # sentinel: word absent from the line
            return False, None
        lines.move_to_end(key)
        return True, value

    def pack_fill(self, node: int, address: int) -> Optional[_Fill]:
        """Snapshot the line containing ``address`` for ``node``, at
        the home, at the current instant (called while the missing
        read's side effect applies).  Registers the grant in the home's
        directory.  Returns ``None`` for the degenerate own-node case.
        """
        home = address // NODE_SPAN
        if home == node:  # never cache your own memory
            return None
        key = self._key(address)
        start = key[1] * self.line_words
        node_memory = self.memory.nodes[home]
        line: Dict[int, object] = {}
        if start >= REMOTE_ARENA_BASE:
            # Arena lines (remote-allocated objects) are sparse and
            # unbounded: every word of the line exists, absent words
            # read as 0 -- include them all so spatial locality of
            # remote allocations is cacheable.
            for offset in range(start, start + self.line_words):
                word = node_memory.read(offset)
                if word is None or word is FILLER:
                    word = 0
                line[offset] = word
        else:
            end = min(start + self.line_words, node_memory.size_words)
            for offset in range(start, end):
                word = node_memory.read(offset)
                if word is None or word is FILLER:
                    word = 0
                line[offset] = word
        self._granted.setdefault(key, set()).add(node)
        return _Fill(node, key, self.now, line)

    def wrap_fill(self, node: int, address: int, value):
        """The reply payload of a missing read whose side effect just
        applied at the home and produced ``value``: a :class:`_Fill`
        carrying both the value and the line snapshot.  The machine
        unwraps it when the reply is delivered.  Under fault injection
        this rides the exactly-once application path, so retries never
        double-snapshot."""
        fill = self.pack_fill(node, address)
        if fill is None:
            return value
        fill.value = value
        return fill

    def install(self, fill: _Fill, at: float) -> object:
        """Deliver a fill at the reader: install the snapshot (unless a
        store at or after its instant already invalidated it, or one of
        the reader's own writes to the line is in flight) and return
        the carried read value."""
        node, key = fill.node, fill.key
        if self._blocked.get((node, key), 0) == 0 \
                and fill.snap_t > self._inval_hw.get((node, key), -1.0):
            lines = self._lines[node]
            if key not in lines and len(lines) >= self.capacity:
                lines.popitem(last=False)
                self.stats.rcache_evictions += 1
            lines[key] = (fill.snap_t, fill.line)
            lines.move_to_end(key)
        return fill.value

    # -- invalidation (the write path) -------------------------------------

    def store_applied(self, address: int, words: int = 1) -> None:
        """A store's side effect is landing in global memory *now*:
        send each granted holder of the covered line(s) an
        invalidation (delivered ``rcache_inval_ns`` later) and clear
        the grants.  Called from the global-memory write hooks, i.e.
        exactly once even for retried split-phase writes."""
        machine = self.machine
        t_w = self.now
        for key in self._keys_for(address, words):
            holders = self._granted.pop(key, None)
            if not holders:
                continue
            for holder in sorted(holders):  # deterministic send order
                machine.send_inval(holder, key, t_w)

    def fire_inval(self, holder: int, key: _LineKey, t_w: float,
                   at: float) -> None:
        """An invalidation message arrives at ``holder``: drop its copy
        if the copy was snapped no later than the store, and raise the
        high-water mark so in-flight snapshots of the line that are not
        newer than the store cannot install.  A snapshot taken at the
        store's own instant counts as stale: under fault injection a
        parked read and a later write of the same channel drain at one
        instant, read first."""
        hw_key = (holder, key)
        if t_w > self._inval_hw.get(hw_key, -1.0):
            self._inval_hw[hw_key] = t_w
        entry = self._lines[holder].get(key)
        if entry is not None and entry[0] <= t_w:
            del self._lines[holder][key]
            self._note_inval(holder, key, at)

    def invalidate_node(self, node: int, address: int, words: int = 1,
                        at: Optional[float] = None) -> None:
        """Drop only ``node``'s own copies of the covered line(s) --
        the issue-time half of write-through: the *writer* must not
        serve its own later reads from a copy that predates its write.
        (The home's grant directory is deliberately left alone -- it
        lives on the home's shard -- so the writer may later receive a
        no-op invalidation for a line it already dropped.)"""
        if at is None:
            at = self.now
        lines = self._lines[node]
        for key in self._keys_for(address, words):
            if lines.pop(key, None) is None:
                continue
            self._note_inval(node, key, at)

    def writer_block(self, node: int, address: int,
                     words: int = 1) -> None:
        """Block installs of the covered line(s) at ``node`` while one
        of its own writes is in flight (a fill snapped before the write
        must not resurface after the issue-time drop)."""
        for key in self._keys_for(address, words):
            block_key = (node, key)
            self._blocked[block_key] = self._blocked.get(block_key, 0) + 1

    def writer_unblock(self, node: int, address: int,
                       words: int = 1) -> None:
        """Release :meth:`writer_block` when the write's reply confirms
        completion."""
        for key in self._keys_for(address, words):
            block_key = (node, key)
            count = self._blocked.get(block_key, 0) - 1
            if count <= 0:
                self._blocked.pop(block_key, None)
            else:
                self._blocked[block_key] = count

    def _note_inval(self, node: int, key: _LineKey, at: float) -> None:
        self.stats.rcache_invalidations += 1
        if self.tracer is not None:
            self.tracer.emit("cache_inval", at, node,
                             home=key[0],
                             addr=key[0] * NODE_SPAN
                             + key[1] * self.line_words,
                             words=self.line_words)

    # -- introspection -----------------------------------------------------

    def lines_held(self, node: int) -> int:
        """Resident line count of one node's cache."""
        return len(self._lines[node])

    def holders_of(self, address: int) -> Tuple[int, ...]:
        """Nodes currently holding a copy of the line containing
        ``address``."""
        key = self._key(address)
        return tuple(node for node in range(self.num_nodes)
                     if key in self._lines[node])

    def granted_to(self, address: int) -> Tuple[int, ...]:
        """Nodes the home has granted the line to since its last store
        (a superset of actual holders: evictions are invisible to the
        home)."""
        return tuple(sorted(self._granted.get(self._key(address), ())))

    def __repr__(self) -> str:
        held = sum(len(lines) for lines in self._lines)
        return (f"RemoteCache({self.num_nodes} nodes, "
                f"{self.capacity}x{self.line_words}w, lru, {held} lines held)")


__all__ = ["RemoteCache", "DEFAULT_CAPACITY", "DEFAULT_LINE_WORDS",
           "node_of"]
