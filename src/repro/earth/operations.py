"""Remote operations as data, and the one function that executes them.

An engine never hands the machine a callable: the ``operation`` element
of a ``Machine.issue(...)`` call is a plain tuple naming a side effect on
machine state, and :class:`Applier` is the only code that says what each
kind does.  The machine calls it wherever an issued operation takes
effect -- the local fast path, the target SU of a split-phase request, a
shard worker serving a request that crossed processes -- so one run has
one point at which every word moved is visible as a value.

==========================================  ==============================
operation                                   effect -> value
==========================================  ==============================
``("read", addr)``                          one word; nil delivers 0 and
                                            is counted (a fault under
                                            ``strict_nil_reads``)
``("write", addr, value, double)``          store; a double also stores
                                            :data:`FILLER` behind it
``("alloc", target, words, origin)``        allocate -> address
``("value", data)``                         nothing -> ``data`` (a block
                                            move that never left the node
                                            delivers its snapshot)
``("bwrite", dst, data)``                   store a block snapshotted at
                                            issue time
``("bread", src, words)``                   -> the block; the reply
                                            slot's ``post`` lands it
``("bxfer", src, dst, words)``              copy between two nodes, both
                                            foreign to the issuer
``("sharedg", name, op, value)``            atomic op on a global shared
                                            variable's cell
``("sharedf", cell, op, value)``            the same on a frame-declared
                                            cell -- a live object, so the
                                            kind cannot cross shards
``("fill", node, addr, operation)``         ``operation``, its value riding
                                            a remote-cache line snapshot
==========================================  ==============================

Every kind but ``sharedf`` pickles unchanged, which is how a request
reaches a target node simulated by another process.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.earth.memory import FILLER, NODE_SPAN, GlobalMemory
from repro.earth.stats import MachineStats
from repro.errors import InterpreterError, MemoryFault


def normalize_word(word):
    """An uninitialized or filler word reads as 0."""
    if word is None or word is FILLER:
        return 0
    return word


class Applier:
    """Executes operations against one machine's state.  Built by the
    :class:`~repro.earth.interpreter.Interpreter` and installed as its
    machine's ``apply``."""

    __slots__ = ("memory", "stats", "strict_nil_reads", "rcache",
                 "shared_cell")

    def __init__(self, memory: GlobalMemory, stats: MachineStats,
                 strict_nil_reads: bool = False, rcache=None,
                 shared_cell: Optional[Callable] = None):
        self.memory = memory
        self.stats = stats
        self.strict_nil_reads = strict_nil_reads
        self.rcache = rcache
        #: ``shared_cell(name)`` -> the cell of a global shared variable.
        self.shared_cell = shared_cell

    def __call__(self, operation: tuple):
        """Apply ``operation`` now; returns its value (what ``issue``
        returns, or the reply slot is fulfilled with)."""
        kind = operation[0]
        memory = self.memory
        if kind == "read":
            addr = operation[1]
            if addr == 0:
                self._nil_read("nil dereference (remote read)")
                return 0
            return normalize_word(memory.read_word(addr))
        if kind == "write":
            _, addr, value, double = operation
            memory.write_word(addr, value)
            if double:
                memory.write_word(addr + 1, FILLER)
            return None
        if kind == "fill":
            _, node, addr, inner = operation
            return self.rcache.wrap_fill(node, addr, self(inner))
        if kind == "alloc":
            _, target, words, origin = operation
            return memory.allocate(target, words, origin=origin)
        if kind == "value":
            return operation[1]
        if kind == "bwrite":
            _, dst, data = operation
            if dst == 0:
                raise MemoryFault("nil blkmov destination")
            memory.write_block(dst, data)
            return None
        if kind == "bread":
            return memory.read_block(operation[1], operation[2])
        if kind == "bxfer":
            _, src, dst, words = operation
            memory.write_block(dst, memory.read_block(src, words))
            return None
        if kind == "sharedg" or kind == "sharedf":
            _, cell, op, value = operation
            if kind == "sharedg":
                cell = self.shared_cell(cell)
            if op == "writeto":
                cell.value = value
            elif op == "addto":
                cell.value = cell.value + value
            else:  # valueof
                return cell.value
            return None
        raise InterpreterError(f"unknown operation {operation!r}")

    def _nil_read(self, what: str) -> None:
        """A speculative read through nil: counted, and a fault only in
        strict mode."""
        self.stats.speculative_nil_reads += 1
        if self.strict_nil_reads:
            raise MemoryFault(what)

    def blkmov(self, src, dst, words: int, node: int, lazy: bool):
        """Classify one block move issued on ``node`` -> ``(target,
        operation, post)`` for its ``Machine.issue`` call.

        An endpoint is a global address or a frame buffer ``(list,
        offset)``; a buffer and a nil pointer count as being on
        ``node``.  A source on the issuing node is snapshotted *now*:
        the data leaves with the request (and that is what lets the
        request cross a shard boundary).  A source elsewhere with the
        destination here is a pull: the servicing SU reads the block,
        the reply carries it, and ``post`` (the reply slot's delivery
        hook; ``None`` otherwise) applies the destination effect.
        ``lazy`` marks a split-phase move filling a whole frame buffer,
        whose consumers receive the delivered list in place of the
        buffer -- so the buffer's tail beyond ``words`` is captured now
        and appended.

        This is the walker's entry point, which tells the endpoint
        shapes apart at run time.  Emitted code knows the shapes per
        statement and calls :meth:`ptr_to_buf` or :meth:`buf_to_ptr`
        itself; a move between two pointers or two buffers is
        classified here."""
        if isinstance(dst, tuple):
            if not isinstance(src, tuple):
                return self.ptr_to_buf(src, dst, words, node, lazy)
            buffer, offset = src  # buffer -> buffer: a copy on node
            data = buffer[offset:offset + words]
            if lazy:
                data += dst[0][words:]
            return node, ("value", data), None
        if isinstance(src, tuple):
            return self.buf_to_ptr(src, dst, words, node)
        src_node = node if src == 0 else src // NODE_SPAN
        dst_node = node if dst == 0 else dst // NODE_SPAN
        if src_node == node:
            return dst_node, ("bwrite", dst, self._snapshot(src, words)), None
        if dst_node != node:
            return dst_node, ("bxfer", src, dst, words), None
        memory = self.memory

        def post(data):
            if dst == 0:
                raise MemoryFault("nil blkmov destination")
            memory.write_block(dst, data)
            return None
        return src_node, ("bread", src, words), post

    def ptr_to_buf(self, src: int, dst: tuple, words: int, node: int,
                   lazy: bool):
        """:meth:`blkmov` from a global address into a frame buffer: a
        pull when the source is on another node, else a value."""
        tail = dst[0][words:] if lazy else None
        src_node = src // NODE_SPAN
        if src and src_node != node:
            return src_node, ("bread", src, words), (
                (lambda data: list(data) + tail) if tail else None)
        data = self._snapshot(src, words)
        return node, ("value", data + tail if tail else data), None

    def buf_to_ptr(self, src: tuple, dst: int, words: int, node: int):
        """:meth:`blkmov` from a frame buffer to a global address: the
        snapshot leaves with the request."""
        buffer, offset = src
        return (dst // NODE_SPAN if dst else node), (
            "bwrite", dst, buffer[offset:offset + words]), None

    def _snapshot(self, src: int, words: int) -> list:
        """The block at ``src`` on the issuing node, read now; a nil
        source reads as zeros (counted)."""
        if src == 0:
            self._nil_read("nil blkmov source")
            return [0] * words
        return self.memory.read_block(src, words)
