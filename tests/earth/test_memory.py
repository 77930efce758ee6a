"""Global memory tests."""

import pytest

from repro.earth.memory import (
    FILLER,
    NODE_SPAN,
    GlobalMemory,
    make_address,
    node_of,
    offset_of,
)
from repro.errors import MemoryFault


class TestAddressing:
    def test_roundtrip(self):
        addr = make_address(3, 1234)
        assert node_of(addr) == 3
        assert offset_of(addr) == 1234

    def test_null_is_zero(self):
        assert make_address(0, 0) == 0

    def test_nodes_do_not_overlap(self):
        assert node_of(make_address(1, NODE_SPAN - 1)) == 1


class TestAllocation:
    def test_allocations_never_return_null(self):
        memory = GlobalMemory(2)
        for _ in range(10):
            assert memory.allocate(0, 4) != 0

    def test_allocations_are_disjoint(self):
        memory = GlobalMemory(1)
        a = memory.allocate(0, 4)
        b = memory.allocate(0, 4)
        assert abs(a - b) >= 4

    def test_allocation_on_each_node(self):
        memory = GlobalMemory(3)
        for node in range(3):
            addr = memory.allocate(node, 2)
            assert node_of(addr) == node

    def test_zero_size_allocation_rejected(self):
        memory = GlobalMemory(1)
        with pytest.raises(MemoryFault):
            memory.allocate(0, 0)


class TestAccess:
    def test_write_then_read(self):
        memory = GlobalMemory(2)
        addr = memory.allocate(1, 4)
        memory.write_word(addr + 2, 42)
        assert memory.read_word(addr + 2) == 42

    def test_uninitialized_reads_none(self):
        memory = GlobalMemory(1)
        addr = memory.allocate(0, 1)
        assert memory.read_word(addr) is None

    def test_nil_read_faults(self):
        memory = GlobalMemory(1)
        with pytest.raises(MemoryFault):
            memory.read_word(0)

    def test_nil_write_faults(self):
        memory = GlobalMemory(1)
        with pytest.raises(MemoryFault):
            memory.write_word(0, 1)

    def test_out_of_range_faults(self):
        memory = GlobalMemory(1)
        addr = memory.allocate(0, 2)
        with pytest.raises(MemoryFault):
            memory.read_word(addr + 100)

    def test_block_roundtrip(self):
        memory = GlobalMemory(2)
        addr = memory.allocate(1, 4)
        memory.write_block(addr, [1, 2.5, FILLER, 4])
        assert memory.read_block(addr, 4) == [1, 2.5, FILLER, 4]

    def test_block_out_of_range_faults(self):
        memory = GlobalMemory(1)
        addr = memory.allocate(0, 4)
        with pytest.raises(MemoryFault):
            memory.read_block(addr + 2, 4)


class TestGlobals:
    def test_globals_live_on_node_zero(self):
        memory = GlobalMemory(4)
        addr = memory.register_global("g", 2)
        assert node_of(addr) == 0
        assert memory.global_address("g") == addr
        assert memory.has_global("g")
        assert not memory.has_global("other")

    def test_machine_requires_a_node(self):
        with pytest.raises(MemoryFault):
            GlobalMemory(0)
