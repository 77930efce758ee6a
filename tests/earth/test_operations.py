"""The applier (earth/operations.py) on bare machine state: what each
operation kind does, what the blkmov classification hands the machine,
and that everything an engine issues is plain picklable data."""

import pickle

import pytest

from repro.earth.interpreter import ENGINES, Interpreter, SharedCell
from repro.earth.machine import Machine, Slot
from repro.earth.memory import FILLER, GlobalMemory, make_address
from repro.earth.operations import Applier
from repro.earth.params import MachineParams
from repro.earth.rcache import _Fill
from repro.earth.stats import MachineStats
from repro.errors import InterpreterError, MemoryFault, ShardError
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import get_benchmark
from repro.shard.partition import Partition
from repro.shard.worker import ShardPort


def bare(strict=False, nodes=2, words=8):
    """An applier over a fresh memory with ``words`` allocated on every
    node; returns ``(applier, memory, [block address per node])``."""
    memory = GlobalMemory(nodes)
    blocks = [memory.allocate(node, words) for node in range(nodes)]
    return Applier(memory, MachineStats(), strict), memory, blocks


def put(memory, address, values):
    memory.write_block(address, list(values))


class TestKinds:
    def test_nil_read_delivers_zero_and_is_counted(self):
        apply, _, _ = bare()
        assert apply(("read", 0)) == 0
        assert apply.stats.speculative_nil_reads == 1

    def test_nil_read_faults_under_strict_and_is_still_counted(self):
        apply, _, _ = bare(strict=True)
        with pytest.raises(MemoryFault, match="nil dereference"):
            apply(("read", 0))
        assert apply.stats.speculative_nil_reads == 1

    @pytest.mark.parametrize("stored, read_back", [
        (7, 7), (2.5, 2.5), (None, 0), (FILLER, 0)])
    def test_read_normalizes_unset_and_filler_words(self, stored,
                                                    read_back):
        apply, memory, (a, _) = bare()
        memory.write_word(a, stored)
        assert apply(("read", a)) == read_back

    @pytest.mark.parametrize("double, behind", [(False, 9), (True, FILLER)])
    def test_write_stores_filler_behind_a_double(self, double, behind):
        apply, memory, (_, b) = bare()
        memory.write_word(b + 1, 9)
        assert apply(("write", b, 1.5, double)) is None
        assert memory.read_word(b) == 1.5
        assert memory.read_word(b + 1) is behind

    def test_alloc_on_a_foreign_node_comes_from_the_origins_arena(self):
        apply, _, (a0, _) = bare(words=8)
        assert apply(("alloc", 0, 4, 0)) == a0 + 8
        assert apply(("alloc", 1, 4, 0)) \
            == GlobalMemory(2).allocate(1, 4, origin=0)

    @pytest.mark.parametrize("op, value, after, result", [
        ("writeto", 5, 5, None),
        ("addto", 5, 15, None),
        ("valueof", None, 10, 10),
    ])
    def test_shared_ops_on_frame_and_global_cells(self, op, value, after,
                                                  result):
        cells = {"g": SharedCell(10, 0)}
        apply, _, _ = bare()
        apply.shared_cell = cells.__getitem__
        frame_cell = SharedCell(10, 0)
        assert apply(("sharedf", frame_cell, op, value)) == result
        assert apply(("sharedg", "g", op, value)) == result
        assert frame_cell.value == cells["g"].value == after

    def test_fill_returns_the_value_riding_a_line_snapshot(self):
        machine = Machine(2, MachineParams(rcache_capacity=4,
                                           rcache_line_words=4))
        memory = machine.memory
        a = memory.allocate(1, 4)
        put(memory, a, [3, 4, 5, 6])
        apply = Applier(memory, machine.stats, rcache=machine.rcache)
        fill = apply(("fill", 0, a + 1, ("read", a + 1)))
        assert isinstance(fill, _Fill)
        assert fill.value == 4
        assert {3, 4, 5, 6} >= set(fill.line.values()) >= {4}
        assert machine.rcache.granted_to(a + 1) == (0,)

    def test_unknown_kind_is_an_error(self):
        apply, _, _ = bare()
        with pytest.raises(InterpreterError, match="unknown operation"):
            apply(("teleport", 1))


class TestBlkmov:
    """``Applier.blkmov`` issued on node 0: endpoints on node 0, node 1
    and in a frame buffer."""

    def test_push_writes_the_issue_time_snapshot(self):
        apply, memory, (a0, a1) = bare()
        put(memory, a0, [1, 2, 3])
        target, operation, post = apply.blkmov(a0, a1, 3, 0, False)
        assert (target, operation) == (1, ("bwrite", a1, [1, 2, 3]))
        put(memory, a0, [9, 9, 9])  # mutated before the SU serves it
        assert apply(operation) is None
        assert memory.read_block(a1, 3) == [1, 2, 3]
        assert post is None

    def test_push_from_a_frame_buffer_and_from_nil(self):
        apply, memory, (_, a1) = bare()
        buffer = [0, 7, 8, 0]
        assert apply.blkmov((buffer, 1), a1, 2, 0, False) \
            == (1, ("bwrite", a1, [7, 8]), None)
        assert apply.blkmov(0, a1, 2, 0, False) \
            == (1, ("bwrite", a1, [0, 0]), None)
        assert apply.stats.speculative_nil_reads == 1

    def test_strict_nil_source_faults_at_issue(self):
        apply, _, (_, a1) = bare(strict=True)
        with pytest.raises(MemoryFault, match="nil blkmov source"):
            apply.blkmov(0, a1, 2, 0, False)

    def test_pull_lands_at_delivery_through_slot_post(self):
        machine = Machine(2)
        memory = machine.memory
        a0, a1 = memory.allocate(0, 4), memory.allocate(1, 4)
        put(memory, a1, [4, 5, 6])
        apply = Applier(memory, machine.stats)
        target, operation, post = apply.blkmov(a1, a0, 3, 0, False)
        assert (target, operation) == (1, ("bread", a1, 3))
        slot = Slot("mv", post)
        reply = apply(operation)
        assert reply == [4, 5, 6]
        assert memory.read_block(a0, 3) == [None] * 3  # not yet
        machine.fulfill(slot, reply, 0.0)
        assert memory.read_block(a0, 3) == [4, 5, 6]
        assert slot.value is None

    def test_pull_into_nil_faults_at_delivery(self):
        apply, _, (_, a1) = bare()
        _, operation, post = apply.blkmov(a1, 0, 2, 0, False)
        with pytest.raises(MemoryFault, match="nil blkmov destination"):
            post(apply(operation))

    def test_lazy_pull_appends_the_buffers_tail(self):
        apply, memory, (_, a1) = bare()
        put(memory, a1, [4, 5])
        buffer = [0, 0, 8, 9]
        target, operation, post = apply.blkmov(a1, (buffer, 0), 2, 0, True)
        assert (target, operation) == (1, ("bread", a1, 2))
        assert post(apply(operation)) == [4, 5, 8, 9]

    def test_both_remote_copies_at_the_destination(self):
        apply, memory, (_, a1, a2) = bare(nodes=3)
        put(memory, a1, [1, 2])
        target, operation, post = apply.blkmov(a1, a2, 2, 0, False)
        assert (target, operation, post) == (2, ("bxfer", a1, a2, 2), None)
        put(memory, a1, [3, 4])  # read when served, not when issued
        apply(operation)
        assert memory.read_block(a2, 2) == [3, 4]

    @pytest.mark.parametrize("lazy, delivered", [
        (False, [1, 2]), (True, [1, 2, 8, 9])])
    def test_local_move_into_a_buffer_delivers_the_data(self, lazy,
                                                        delivered):
        apply, memory, (a0, _) = bare()
        put(memory, a0, [1, 2])
        target, operation, post = apply.blkmov(a0, ([0, 0, 8, 9], 0), 2,
                                               0, lazy)
        assert (target, operation, post) == (0, ("value", delivered), None)
        assert apply(operation) == delivered

    def test_local_move_between_addresses_and_into_nil(self):
        apply, memory, (a0, _) = bare()
        put(memory, a0, [1, 2])
        target, operation, _ = apply.blkmov(a0, a0 + 4, 2, 0, False)
        assert (target, operation) == (0, ("bwrite", a0 + 4, [1, 2]))
        apply(operation)
        assert memory.read_block(a0 + 4, 2) == [1, 2]
        _, into_nil, _ = apply.blkmov(a0, 0, 2, 0, False)
        with pytest.raises(MemoryFault, match="nil blkmov destination"):
            apply(into_nil)


class TestOperationsAreData:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ["power", "em3d"])
    def test_every_issued_operation_survives_pickle(self, name, engine):
        """Frame-cell shared ops carry a live cell (checked below);
        everything else an engine issues equals its own pickle."""
        bench = get_benchmark(name)
        compiled = compile_earthc(bench.source(), optimize=True,
                                  inline=bench.inline)
        machine = Machine(2, MachineParams())
        interp = Interpreter(compiled.simple, machine, engine=engine)
        applier = machine.apply
        issued = []

        def record(operation):
            issued.append(operation)
            return applier(operation)

        machine.apply = record
        interp.run("main", bench.small_args)
        kinds = {operation[0] for operation in issued}
        assert {"read", "write", "alloc"} <= kinds
        for operation in issued:
            assert type(operation) is tuple
            if operation[0] != "sharedf":
                assert pickle.loads(pickle.dumps(operation)) == operation

    def test_frame_cell_shared_op_cannot_be_shipped(self):
        port = ShardPort(0, Partition(2, 2), None)
        request = dict(op="write", origin=0, target=1, words=1,
                       chan_seq=1, attempt=1, arrival=10.0, op_id=None)
        with pytest.raises(ShardError, match="frame-declared"):
            port.send_request(
                operation=("sharedf", SharedCell(0, 1), "addto", 1),
                **request)
        port.send_request(operation=("sharedg", "total", "addto", 1),
                          **request)
        (dest, message), = port.drain()
        assert dest == 1 and pickle.loads(pickle.dumps(message)) == message

    def test_both_remote_blkmov_cannot_straddle_shards(self):
        port = ShardPort(0, Partition(4, 2), None)
        request = dict(op="blkmov", origin=0, target=3, words=2,
                       chan_seq=1, attempt=1, arrival=10.0, op_id=None)
        with pytest.raises(ShardError, match="different shards"):
            port.send_request(
                operation=("bxfer", make_address(2, 16),
                           make_address(3, 16), 2), **request)
        port.send_request(
            operation=("bxfer", make_address(1, 16), make_address(3, 16),
                       2), **request)
        assert len(port.drain()) == 1
