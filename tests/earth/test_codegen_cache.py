"""The compiled-code cache is shared by every thread of a process.

``serve --workers 0`` computes up to four jobs at once in one process,
so between one thread's lookup in ``codegen._CODE_CACHE`` and its LRU
touch another thread's insert can evict the entry.  A hit path that
needs the key to still be there would fail the job with a
``KeyError``.
"""

from collections import OrderedDict

from repro.earth import codegen
from repro.harness.pipeline import compile_earthc
from tests.earth.test_codegen_golden import SOURCE, _engine_of


class EvictingCache(OrderedDict):
    """Forces the interleaving: every hit is evicted (as if by another
    thread's insert at the size limit) before the caller can touch
    it."""

    def get(self, key, default=None):
        value = super().get(key, default)
        self.pop(key, None)
        return value


def test_hit_survives_eviction_between_lookup_and_touch(monkeypatch):
    compiled = compile_earthc(SOURCE, optimize=True)
    names = set(compiled.simple.functions)
    warm = _engine_of(compiled)
    for name in names:
        warm.function(name)
    cache = EvictingCache(codegen._CODE_CACHE)
    monkeypatch.setattr(codegen, "_CODE_CACHE", cache)

    # A recompile: the first program's memo would bind its code
    # without looking in the cache at all.
    engine = _engine_of(compile_earthc(SOURCE, optimize=True))
    for name in names:
        engine.function(name)
    assert set(engine.sources) == names
    assert all(source in cache for source in engine.sources.values())
