"""Unit tests for the per-node remote-data cache (earth/rcache.py):
line geometry, LRU replacement, the message-delayed invalidation
protocol (pack/install, store grants, high-water marks, writer
blocks), the memory write hooks, and the machine-level integration
knobs."""

import pytest

from repro.config import RunConfig
from repro.earth.machine import Machine
from repro.earth.memory import FILLER, NODE_SPAN, GlobalMemory, make_address
from repro.earth.params import MachineParams
from repro.earth.rcache import (
    DEFAULT_CAPACITY,
    DEFAULT_LINE_WORDS,
    RemoteCache,
    _Fill,
)
from repro.earth.stats import MachineStats
from repro.harness.pipeline import compile_earthc, execute
from repro.obs.trace import Tracer


class InstantInval:
    """Stands in for the machine in unit tests: an invalidation
    'message' fires the moment the store applies (zero network
    delay), which makes the protocol's ordering rules directly
    observable through timestamps alone."""

    def __init__(self, cache):
        self.cache = cache

    def send_inval(self, holder, key, t_w):
        self.cache.fire_inval(holder, key, t_w, t_w)


def make_cache(num_nodes=3, capacity=4, line_words=4, tracer=None,
               heap_words=64):
    memory = GlobalMemory(num_nodes)
    stats = MachineStats()
    for node in range(num_nodes):
        memory.allocate(node, heap_words)
    cache = RemoteCache(num_nodes, memory, stats, capacity, line_words,
                        tracer)
    cache.machine = InstantInval(cache)
    memory.rcache = cache
    return cache, memory, stats


def fill(cache, node, address):
    """Snapshot-and-install in one step: what a zero-latency network
    would do with pack_fill / install."""
    packed = cache.pack_fill(node, address)
    if packed is not None:
        cache.install(packed, cache.now)
    return packed


def addr(node, offset):
    return make_address(node, 16 + offset)  # 16 = heap base


class TestGeometry:
    def test_rejects_bad_construction(self):
        memory = GlobalMemory(2)
        stats = MachineStats()
        with pytest.raises(ValueError):
            RemoteCache(2, memory, stats, 0, 4)
        with pytest.raises(ValueError):
            RemoteCache(2, memory, stats, 4, 0)

    def test_lines_are_aligned_and_never_span_nodes(self):
        cache, _, _ = make_cache(line_words=8)
        a = cache._key(make_address(1, 0))
        b = cache._key(make_address(1, 7))
        c = cache._key(make_address(1, 8))
        d = cache._key(make_address(2, 0))
        assert a == b
        assert b != c
        assert a[0] == 1 and d[0] == 2


class TestLookupFill:
    def test_miss_then_fill_then_hit(self):
        cache, memory, stats = make_cache()
        a = addr(1, 0)
        memory.nodes[1].write(16, 42)
        hit, _ = cache.lookup(0, a)
        assert not hit
        fill(cache, 0, a)
        hit, value = cache.lookup(0, a)
        assert hit and value == 42

    def test_fill_normalizes_none_and_filler_to_zero(self):
        cache, memory, _ = make_cache(line_words=4)
        memory.nodes[1].write(16, FILLER)
        # word 17 left as None
        fill(cache, 0, addr(1, 0))
        assert cache.lookup(0, addr(1, 0)) == (True, 0)
        assert cache.lookup(0, addr(1, 1)) == (True, 0)

    def test_pack_fill_skips_own_node(self):
        cache, _, _ = make_cache()
        assert cache.pack_fill(1, addr(1, 0)) is None
        assert cache.lines_held(1) == 0
        assert not cache.lookup(1, addr(1, 0))[0]

    def test_pack_fill_registers_the_grant_at_the_home(self):
        cache, _, _ = make_cache()
        a = addr(1, 0)
        packed = cache.pack_fill(0, a)
        # Granted the instant the home snaps it, even though the fill
        # is still in flight (not installed yet).
        assert cache.granted_to(a) == (0,)
        assert cache.holders_of(a) == ()
        cache.install(packed, cache.now)
        assert cache.holders_of(a) == (0,)

    def test_partial_line_at_end_of_heap(self):
        # Line reaches past the mapped heap: mapped words cached,
        # unmapped words read as misses.
        cache, memory, _ = make_cache(line_words=16, heap_words=20)
        size = memory.nodes[1].size_words  # 36 words: 16 base + 20 heap
        last_line_start = (size // 16) * 16
        a = make_address(1, last_line_start)
        fill(cache, 0, a)
        assert cache.lookup(0, a)[0]
        beyond = make_address(1, size)  # same line, unmapped word
        if cache._key(beyond) == cache._key(a):
            assert not cache.lookup(0, beyond)[0]

    def test_wrap_fill_rides_the_read_value(self):
        cache, memory, _ = make_cache()
        memory.nodes[1].write(16, 9)
        a = addr(1, 0)
        carried = cache.wrap_fill(0, a, memory.read_word(a))
        # The side effect produced a picklable in-flight snapshot...
        assert isinstance(carried, _Fill)
        assert carried.value == 9
        assert not cache.lookup(0, a)[0]  # not installed yet
        # ...and delivery installs the line and yields the read value.
        assert cache.install(carried, cache.now) == 9
        assert cache.lookup(0, a) == (True, 9)

    def test_wrap_fill_own_node_degenerates_to_plain_value(self):
        cache, memory, _ = make_cache()
        memory.nodes[1].write(16, 7)
        a = addr(1, 0)
        assert cache.wrap_fill(1, a, memory.read_word(a)) == 7
        assert cache.lines_held(1) == 0


class TestReplacement:
    def fill_n(self, cache, node, count, line_words=4):
        for i in range(count):
            fill(cache, node, make_address(1, i * line_words))

    def test_capacity_bounds_lines_and_counts_evictions(self):
        cache, _, stats = make_cache(capacity=2, line_words=4,
                                     heap_words=64)
        self.fill_n(cache, 0, 4)
        assert cache.lines_held(0) == 2
        assert stats.rcache_evictions == 2

    def test_lru_promotes_on_hit(self):
        cache, _, _ = make_cache(capacity=2, line_words=4, heap_words=64)
        fill(cache, 0, make_address(1, 0))
        fill(cache, 0, make_address(1, 4))
        cache.lookup(0, make_address(1, 0))  # touch line 0
        fill(cache, 0, make_address(1, 8))   # evicts line 1 (LRU)
        assert cache.lookup(0, make_address(1, 0))[0]
        assert not cache.lookup(0, make_address(1, 4))[0]

    def test_eviction_is_invisible_to_the_home(self):
        cache, _, _ = make_cache(capacity=1, line_words=4, heap_words=64)
        a, b = make_address(1, 0), make_address(1, 4)
        fill(cache, 0, a)
        assert cache.holders_of(a) == (0,)
        fill(cache, 0, b)
        assert cache.holders_of(a) == ()
        assert cache.holders_of(b) == (0,)
        # The grant directory still lists the evicted holder: the home
        # cannot see remote evictions, so a later store will send it a
        # harmless no-op invalidation.
        assert cache.granted_to(a) == (0,)


class TestInvalidation:
    def test_write_word_hook_drops_all_holders(self):
        cache, memory, stats = make_cache()
        a = addr(1, 0)
        fill(cache, 0, a)
        fill(cache, 2, a)
        assert cache.holders_of(a) == (0, 2)
        cache.now = 5.0  # copies were snapped strictly earlier
        memory.write_word(a, 7)
        assert cache.holders_of(a) == ()
        assert not cache.lookup(0, a)[0]
        assert not cache.lookup(2, a)[0]
        assert stats.rcache_invalidations == 2
        # The store consumed the grants.
        assert cache.granted_to(a) == ()

    def test_write_block_invalidates_every_covered_line(self):
        cache, memory, _ = make_cache(line_words=4)
        first, second = addr(1, 0), addr(1, 4)
        fill(cache, 0, first)
        fill(cache, 0, second)
        cache.now = 5.0
        memory.write_block(addr(1, 2), [1, 2, 3, 4])  # spans both lines
        assert not cache.lookup(0, first)[0]
        assert not cache.lookup(0, second)[0]

    def test_hit_never_goes_stale_after_write(self):
        cache, memory, _ = make_cache()
        a = addr(1, 0)
        memory.write_word(a, 1)
        cache.now = 1.0
        fill(cache, 0, a)
        cache.now = 2.0
        memory.write_word(a, 2)
        hit, _ = cache.lookup(0, a)
        assert not hit  # must re-read, not serve the stale 1
        cache.now = 3.0
        fill(cache, 0, a)
        assert cache.lookup(0, a) == (True, 2)

    def test_stale_inflight_snapshot_cannot_install(self):
        # A fill snapped *before* a store must not resurface *after*
        # the store's invalidation fired at the reader.
        cache, memory, _ = make_cache()
        a = addr(1, 0)
        memory.nodes[1].write(16, 1)
        stale = cache.pack_fill(0, a)     # snapped at t=0
        cache.now = 5.0
        memory.write_word(a, 2)           # inval fires at t=5
        cache.install(stale, 6.0)         # delivery after the inval
        assert not cache.lookup(0, a)[0]

    def test_a_copy_snapped_at_the_stores_own_instant_is_stale(self):
        # Equal instants: under fault injection a parked read and a
        # later write of one channel drain at one instant, read first,
        # so a copy snapped at the store's own instant predates it.
        cache, memory, stats = make_cache()
        a = addr(1, 0)
        memory.nodes[1].write(16, 1)
        cache.now = 5.0
        fill(cache, 0, a)                 # snapped at t=5
        memory.write_word(a, 2)           # applied at t=5, inval fires
        assert not cache.lookup(0, a)[0]
        assert stats.rcache_invalidations == 1

    def test_newer_copy_survives_older_inval(self):
        # Invalidations carry the store time: a copy snapped after the
        # store (reordered delivery) is already fresh and must stay.
        cache, _, _ = make_cache()
        a = addr(1, 0)
        cache.now = 10.0
        fill(cache, 0, a)
        cache.fire_inval(0, cache._key(a), 5.0, 12.0)
        assert cache.lookup(0, a)[0]

    def test_writer_block_gates_installs_until_unblock(self):
        cache, memory, _ = make_cache()
        a = addr(1, 0)
        packed = cache.pack_fill(0, a)
        cache.writer_block(0, a)
        cache.install(packed, cache.now)
        assert not cache.lookup(0, a)[0]  # blocked while write in flight
        cache.writer_unblock(0, a)
        cache.install(packed, cache.now)
        assert cache.lookup(0, a)[0]

    def test_writer_blocks_nest(self):
        cache, _, _ = make_cache()
        a = addr(1, 0)
        cache.writer_block(0, a)
        cache.writer_block(0, a)
        cache.writer_unblock(0, a)
        packed = cache.pack_fill(0, a)
        cache.install(packed, cache.now)
        assert not cache.lookup(0, a)[0]  # one write still in flight
        cache.writer_unblock(0, a)
        cache.install(packed, cache.now)
        assert cache.lookup(0, a)[0]

    def test_invalidate_node_only_drops_the_writer(self):
        cache, _, _ = make_cache()
        a = addr(1, 0)
        fill(cache, 0, a)
        fill(cache, 2, a)
        cache.invalidate_node(0, a)
        assert cache.holders_of(a) == (2,)
        assert not cache.lookup(0, a)[0]
        assert cache.lookup(2, a)[0]

    def test_invalidating_unheld_lines_is_a_noop(self):
        cache, memory, stats = make_cache()
        memory.write_word(addr(1, 0), 3)  # no grants: nothing to send
        cache.invalidate_node(0, addr(1, 0))
        cache.fire_inval(0, cache._key(addr(1, 0)), 1.0, 1.0)
        assert stats.rcache_invalidations == 0

    def test_inval_emits_trace_events(self):
        tracer = Tracer()
        cache, memory, _ = make_cache(tracer=tracer)
        a = addr(1, 0)
        fill(cache, 0, a)
        cache.now = 123.0
        memory.write_word(a, 5)
        events = tracer.events_of("cache_inval")
        assert len(events) == 1
        assert events[0]["home"] == 1
        assert events[0]["ts"] == 123.0
        assert events[0]["words"] == cache.line_words

    def test_repr_mentions_geometry(self):
        cache, _, _ = make_cache(capacity=4, line_words=4)
        assert "4x4w" in repr(cache)
        assert "lru" in repr(cache)


SOURCE = """
struct cell { int a; int b; };

int main()
{
    struct cell *p;
    int x;
    int y;
    int z;
    p = (struct cell *) malloc(sizeof(struct cell)) @ 1;
    p->a = 5;
    x = p->a;
    y = p->a;
    p->a = 6;
    z = p->a;
    return x + y + z;
}
"""


class TestMachineIntegration:
    def run(self, capacity, **extra):
        compiled = compile_earthc(SOURCE, optimize=False)
        config = RunConfig(nodes=2, rcache_capacity=capacity, **extra)
        return execute(compiled, config=config)

    def test_capacity_zero_builds_no_cache(self):
        machine = Machine(2, MachineParams())
        assert machine.rcache is None
        assert machine.memory.rcache is None

    def test_single_node_machine_builds_no_cache(self):
        machine = Machine(1, MachineParams(rcache_capacity=8))
        assert machine.rcache is None

    def test_capacity_zero_run_keeps_counters_zero(self):
        result = self.run(0)
        stats = result.stats
        assert stats.rcache_hits == stats.rcache_misses == 0
        assert stats.rcache_evictions == stats.rcache_invalidations == 0

    def test_cached_run_same_value_fewer_remote_reads(self):
        plain = self.run(0)
        cached = self.run(8)
        assert cached.value == plain.value == 16
        assert cached.stats.rcache_hits > 0
        assert cached.stats.remote_reads < plain.stats.remote_reads
        assert cached.stats.rcache_invalidations > 0  # p->a = 6 dropped it
        assert cached.time_ns < plain.time_ns

    def test_hits_skip_the_network_but_count_in_stats(self):
        cached = self.run(8)
        stats = cached.stats
        assert stats.rcache_hits + stats.rcache_misses \
            >= stats.remote_reads

    def test_both_engines_agree_with_cache(self):
        codegen = self.run(8, engine="codegen")
        ast = self.run(8, engine="ast")
        assert codegen.value == ast.value
        assert codegen.time_ns == ast.time_ns
        assert codegen.stats.snapshot() == ast.stats.snapshot()

    def test_cache_hit_trace_events(self):
        compiled = compile_earthc(SOURCE, optimize=False)
        tracer = Tracer()
        config = RunConfig(nodes=2, rcache_capacity=8)
        result = execute(compiled, tracer=tracer, config=config)
        hits = tracer.events_of("cache_hit")
        assert len(hits) == result.stats.rcache_hits > 0
        for event in hits:
            assert event["target"] == 1
            assert event["addr"] > NODE_SPAN

    def test_defaults_are_the_documented_geometry(self):
        assert DEFAULT_CAPACITY == 64
        assert DEFAULT_LINE_WORDS == 16
        params = MachineParams()
        assert params.rcache_capacity == 0  # off unless asked for
        assert params.rcache_line_words == DEFAULT_LINE_WORDS
