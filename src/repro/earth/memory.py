"""The EARTH global address space.

EARTH-MANNA aggregates the local memories of all nodes into one global
address space (paper Section 5.1).  We encode a global address as a
Python int: ``node * NODE_SPAN + offset`` with word granularity.  NULL
is 0; allocations start at a nonzero offset so no valid address is 0.

Each node's memory is a flat word array.  A ``double`` occupies two
words: the float lives in the first word and the second holds the
:data:`FILLER` sentinel, so word-granular ``blkmov`` copies structs
correctly without knowing field types.  Reading an uninitialized or
filler word yields 0 (the speculative-read semantics of the EARTH
runtime; strict mode can be enabled to fault instead).

Remote-allocation arenas
------------------------

``allocate(node, words, origin=...)`` with a different origin carves
the block out of an *arena*: the upper half of the target node's
address space (offsets at and above :data:`REMOTE_ARENA_BASE`) is
pre-partitioned into one equal slice per originating node, and each
origin bumps its own slice counter.  Two properties follow.  First,
remote allocation needs no message -- the address is computable at the
origin, matching the machine's instantaneous remote-malloc cost model.
Second, the counter for a slice is touched only by its origin, so a
sharded run (:mod:`repro.shard`) hands out bit-identical addresses no
matter how nodes are partitioned across processes, with no
allocation-order races between shards.  Arena storage is sparse
(materialized by writes) and arena reads never bounds-fault: an
untouched arena word reads as uninitialized (0), since the origin may
legitimately hand out the address before any write reaches the target.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.errors import MemoryFault

#: Address span reserved per node.
NODE_SPAN = 1 << 40

#: First allocatable word offset (0 is NULL, low words are reserved).
_HEAP_BASE = 16

#: First word offset of the remote-allocation arenas; the dense local
#: heap bump-allocates below this, remote allocations land at or above
#: it (one slice per originating node).
REMOTE_ARENA_BASE = 1 << 39


class _Filler:
    """Sentinel filling the second word of a double."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<filler>"

    def __reduce__(self):
        # Pickle to the module singleton, so block-move payloads that
        # contain filler words can cross shard-worker processes and
        # still satisfy ``word is FILLER`` checks.
        return (_get_filler, ())


FILLER = _Filler()


def _get_filler() -> "_Filler":
    return FILLER


Word = Union[int, float, _Filler, None]


def make_address(node: int, offset: int) -> int:
    return node * NODE_SPAN + offset


def node_of(address: int) -> int:
    return address // NODE_SPAN


def offset_of(address: int) -> int:
    return address % NODE_SPAN


class NodeMemory:
    """One node's local word-addressed memory: a dense bump-allocated
    heap plus a sparse remote-allocation arena."""

    def __init__(self, node: int):
        self.node = node
        self._words: List[Word] = [None] * _HEAP_BASE
        #: Sparse storage for arena offsets (>= REMOTE_ARENA_BASE),
        #: materialized by writes; absent words are uninitialized.
        self._arena: Dict[int, Word] = {}

    def allocate(self, words: int) -> int:
        """Allocate ``words`` words from the dense local heap; returns
        the *global* address."""
        if words <= 0:
            raise MemoryFault(f"allocation of {words} words", self.node)
        offset = len(self._words)
        if offset + words > REMOTE_ARENA_BASE:
            raise MemoryFault(
                f"local heap exhausted ({offset} words)", self.node)
        self._words.extend([None] * words)
        return make_address(self.node, offset)

    def read(self, offset: int) -> Word:
        if offset >= REMOTE_ARENA_BASE:
            return self._arena.get(offset)
        if offset < 0 or offset >= len(self._words):
            raise MemoryFault(f"read of unmapped offset {offset}",
                              self.node, offset)
        return self._words[offset]

    def write(self, offset: int, value: Word) -> None:
        if offset >= REMOTE_ARENA_BASE:
            self._arena[offset] = value
            return
        if offset < 0 or offset >= len(self._words):
            raise MemoryFault(f"write of unmapped offset {offset}",
                              self.node, offset)
        self._words[offset] = value

    def read_block(self, offset: int, words: int) -> List[Word]:
        if offset >= REMOTE_ARENA_BASE:
            arena = self._arena
            return [arena.get(o) for o in range(offset, offset + words)]
        if offset < 0 or offset + words > len(self._words):
            raise MemoryFault(
                f"block read [{offset}, {offset + words}) out of range",
                self.node, offset)
        return self._words[offset:offset + words]

    def write_block(self, offset: int, values: List[Word]) -> None:
        if offset >= REMOTE_ARENA_BASE:
            arena = self._arena
            for index, value in enumerate(values):
                arena[offset + index] = value
            return
        if offset < 0 or offset + len(values) > len(self._words):
            raise MemoryFault(
                f"block write [{offset}, {offset + len(values)}) out of "
                f"range", self.node, offset)
        self._words[offset:offset + len(values)] = values

    @property
    def size_words(self) -> int:
        return len(self._words)


class GlobalMemory:
    """The aggregate of all node memories plus the globals segment.

    Globals live at fixed offsets in node 0's memory, so their addresses
    can be taken (``&global``) and they are remote from every other node
    -- the paper's "references to global variables are remote".
    """

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise MemoryFault(f"machine needs >= 1 node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.nodes = [NodeMemory(i) for i in range(num_nodes)]
        self._global_addrs: Dict[str, int] = {}
        #: Width of one origin's slice of every node's arena.
        self._arena_span = (NODE_SPAN - REMOTE_ARENA_BASE) // num_nodes
        #: Bump counters for the arenas: (target, origin) -> next
        #: offset.  Only code running on ``origin`` bumps its slices.
        self._arena_next: Dict[Tuple[int, int], int] = {}
        #: Optional per-node remote-data cache (earth/rcache.py).  The
        #: machine attaches it so every mutation of global memory --
        #: regardless of which code path performs it -- invalidates
        #: stale cached copies.
        self.rcache = None

    # -- global variables ---------------------------------------------------------

    def register_global(self, name: str, words: int) -> int:
        address = self.nodes[0].allocate(words)
        self._global_addrs[name] = address
        return address

    def global_address(self, name: str) -> int:
        return self._global_addrs[name]

    def has_global(self, name: str) -> bool:
        return name in self._global_addrs

    # -- typed access helpers --------------------------------------------------------

    def allocate(self, node: int, words: int,
                 origin: "int | None" = None) -> int:
        """Allocate ``words`` words of ``node``'s memory.  With an
        ``origin`` other than ``node``, the block comes from the
        origin's slice of the node's remote-allocation arena -- the
        address is determined entirely by origin-side state."""
        if origin is None or origin == node:
            return self.nodes[node].allocate(words)
        if words <= 0:
            raise MemoryFault(f"allocation of {words} words", node)
        key = (node, origin)
        base = REMOTE_ARENA_BASE + origin * self._arena_span
        offset = self._arena_next.get(key, base)
        if offset + words > base + self._arena_span:
            raise MemoryFault(
                f"arena slice for origin {origin} exhausted", node)
        self._arena_next[key] = offset + words
        return make_address(node, offset)

    # (node_of / offset_of written out: once per simulated access.)
    def read_word(self, address: int) -> Word:
        if address == 0:
            raise MemoryFault("nil dereference (read)")
        return self.nodes[address // NODE_SPAN].read(address % NODE_SPAN)

    def write_word(self, address: int, value: Word) -> None:
        if address == 0:
            raise MemoryFault("nil dereference (write)")
        memory = self.nodes[address // NODE_SPAN]
        offset = address % NODE_SPAN
        if self.rcache is not None:
            self.rcache.store_applied(address, 1)
        memory.write(offset, value)

    def read_block(self, address: int, words: int) -> List[Word]:
        if address == 0:
            raise MemoryFault("nil dereference (block read)")
        return self.nodes[address // NODE_SPAN].read_block(
            address % NODE_SPAN, words)

    def write_block(self, address: int, values: List[Word]) -> None:
        if address == 0:
            raise MemoryFault("nil dereference (block write)")
        memory = self.nodes[address // NODE_SPAN]
        offset = address % NODE_SPAN
        if self.rcache is not None:
            self.rcache.store_applied(address, len(values))
        memory.write_block(offset, values)
