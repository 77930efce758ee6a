"""Private-line invalidation skipping (the ``probabilistic`` preset).

The locality pass marks unplaced allocation sites whose objects are
provably never the target of a remote access; the memory write hooks
then skip the remote-cache write-through bookkeeping for those lines
(``rcache_private_skips`` counts them).  The contract tested here: the
skip is purely a traffic optimization -- values, outputs and cache
correctness are untouched under every engine and under chaotic
networks -- and the legacy preset never takes the new path at all.
"""

import pytest

from repro.comm.optimizer import CommConfig
from repro.config import RunConfig
from repro.earth.faults import PROFILES
from repro.earth.interpreter import ENGINES
from repro.earth.memory import GlobalMemory, offset_of
from repro.harness.pipeline import compile_earthc, execute

#: A remote struct read in a loop (so the remote cache engages) plus a
#: local scratch struct written in the same loop (so the private-line
#: skip engages): scratch never escapes to a remote access.
SOURCE = """
struct pair { int x; int y; int z; };

int main(int n)
{
    struct pair *remote;
    struct pair *scratch;
    int i;
    int sum;
    remote = (struct pair *) malloc(sizeof(struct pair)) @ 1;
    scratch = (struct pair *) malloc(sizeof(struct pair));
    remote->x = 5;
    remote->y = 7;
    sum = 0;
    for (i = 0; i < n; i++) {
        scratch->x = i;
        scratch->y = scratch->x + 1;
        sum = sum + remote->x + remote->y + scratch->y;
    }
    return sum;
}
"""

ARGS = (6,)
EXPECTED = sum(5 + 7 + i + 1 for i in range(6))


def compile_private(engine_unused=None):
    return compile_earthc(SOURCE, optimize=True,
                          config=CommConfig(opt="probabilistic"))


class TestMemoryRanges:
    def test_private_ranges_are_exact(self):
        memory = GlobalMemory(2)
        a = memory.allocate(0, 4)
        b = memory.allocate(0, 4, private=True)
        c = memory.allocate(0, 4)
        node = memory.nodes[0]
        assert not node.is_private(offset_of(a))
        assert node.is_private(offset_of(b))
        assert node.is_private(offset_of(b) + 3)
        assert node.is_private(offset_of(b), 4)
        # A span leaking past the private object is not private.
        assert not node.is_private(offset_of(b), 5)
        assert not node.is_private(offset_of(c))

    def test_no_ranges_fast_path(self):
        memory = GlobalMemory(2)
        a = memory.allocate(0, 4)
        assert not memory.nodes[0].is_private(offset_of(a))


class TestMarking:
    def test_probabilistic_marks_the_scratch_site(self):
        compiled = compile_private()
        listing = compiled.listing()
        assert listing.count("[private]") == 1
        assert compiled.report is not None

    def test_legacy_marks_nothing(self):
        compiled = compile_earthc(SOURCE, optimize=True,
                                  config=CommConfig(opt="legacy"))
        assert "[private]" not in compiled.listing()


class TestRuntime:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_skips_counted_and_value_identical(self, engine):
        compiled = compile_private()
        cached = execute(compiled, config=RunConfig(
            nodes=2, args=ARGS, engine=engine, rcache_capacity=8))
        uncached = execute(compiled, config=RunConfig(
            nodes=2, args=ARGS, engine=engine))
        assert cached.value == EXPECTED
        assert uncached.value == EXPECTED
        assert cached.stats.rcache_private_skips > 0
        # Without a cache there is no write-through to skip.
        assert uncached.stats.rcache_private_skips == 0

    def test_legacy_run_never_skips(self):
        compiled = compile_earthc(SOURCE, optimize=True)
        result = execute(compiled, config=RunConfig(
            nodes=2, args=ARGS, rcache_capacity=8))
        assert result.value == EXPECTED
        assert result.stats.rcache_private_skips == 0

    def test_skip_does_not_change_invalidation_counts_for_shared(self):
        """Shared (remote) lines still invalidate exactly as before:
        the skip only ever fires for lines no node can have cached."""
        legacy = execute(
            compile_earthc(SOURCE, optimize=True),
            config=RunConfig(nodes=2, args=ARGS, rcache_capacity=8))
        private = execute(
            compile_private(),
            config=RunConfig(nodes=2, args=ARGS, rcache_capacity=8))
        assert private.value == legacy.value
        assert private.stats.rcache_invalidations \
            <= legacy.stats.rcache_invalidations

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_chaos_differential(self, profile):
        """Cached + private-skipping under a faulty network computes
        exactly what the clean uncached run computes."""
        compiled = compile_private()
        baseline = execute(compiled,
                           config=RunConfig(nodes=2, args=ARGS))
        chaotic = execute(compiled, config=RunConfig(
            nodes=2, args=ARGS, rcache_capacity=8,
            faults=dict(PROFILES[profile], seed=11)))
        assert chaotic.value == baseline.value
        assert chaotic.output == baseline.output
