"""Content-addressed artifact cache (repro.service.cache)."""

import io
import json
import os
import sys
import threading

import pytest

from repro.service.cache import (
    ArtifactCache,
    cache_key,
    canonical_json,
    canonicalize_source,
)


class TestCanonicalization:
    def test_line_endings_normalized(self):
        assert canonicalize_source("a\r\nb\rc\n") == "a\nb\nc\n"

    def test_trailing_whitespace_stripped(self):
        assert canonicalize_source("int x;   \nint y;\t\n") \
            == "int x;\nint y;\n"

    def test_exactly_one_trailing_newline(self):
        assert canonicalize_source("x") == "x\n"
        assert canonicalize_source("x\n\n\n") == "x\n"

    def test_idempotent(self):
        text = "a \r\n b\r\n\n"
        once = canonicalize_source(text)
        assert canonicalize_source(once) == once

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) \
            == canonical_json({"a": [2, 3], "b": 1})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_cache_key_stable_and_distinct(self):
        key = cache_key({"source": "x\n", "options": {"optimize": True}})
        assert len(key) == 64 and int(key, 16) >= 0
        assert key == cache_key({"options": {"optimize": True},
                                 "source": "x\n"})
        assert key != cache_key({"source": "x\n",
                                 "options": {"optimize": False}})


class TestMemoryTier:
    def test_memory_only_round_trip(self):
        cache = ArtifactCache(root=None)
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"value": 1})
        assert cache.get("k" * 64) == {"value": 1}
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ArtifactCache(root=None, memory_entries=2)
        cache.put("a" * 64, {"n": 1})
        cache.put("b" * 64, {"n": 2})
        assert cache.get("a" * 64) is not None  # refresh "a"
        cache.put("c" * 64, {"n": 3})           # evicts "b"
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) == {"n": 1}
        assert cache.get("c" * 64) == {"n": 3}
        assert cache.evictions == 1

    def test_non_dict_payload_rejected(self):
        cache = ArtifactCache(root=None)
        with pytest.raises(TypeError):
            cache.put("a" * 64, [1, 2, 3])

    def test_negative_memory_entries_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(root=None, memory_entries=-1)

    def test_recall_is_the_memory_half_of_get(self, tmp_path):
        """``recall`` answers from the memory tier alone: it counts a
        hit as ``get`` does, counts no miss and never reads disk."""
        root = str(tmp_path / "cache")
        ArtifactCache(root).put("a" * 64, {"n": 1})
        cache = ArtifactCache(root)
        assert cache.recall("a" * 64) is None      # on disk only
        assert cache.recall("b" * 64) is None      # nowhere
        assert (cache.hits, cache.misses, cache.disk_hits) == (0, 0, 0)
        assert cache.get("a" * 64) == {"n": 1}     # promoted
        assert cache.recall("a" * 64) == {"n": 1}
        snap = cache.snapshot()
        assert (snap["hits"], snap["memory_hits"], snap["disk_hits"],
                snap["misses"]) == (2, 1, 1, 0)

    def test_recall_refreshes_the_lru_position(self):
        cache = ArtifactCache(root=None, memory_entries=2)
        cache.put("a" * 64, {"n": 1})
        cache.put("b" * 64, {"n": 2})
        assert cache.recall("a" * 64) == {"n": 1}
        cache.put("c" * 64, {"n": 3})              # evicts "b"
        assert cache.recall("b" * 64) is None
        assert cache.recall("a" * 64) == {"n": 1}


class TestDiskTier:
    def test_disk_round_trip_across_instances(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "d" * 64
        ArtifactCache(root).put(key, {"listing": "L0:\n", "time_ns": 7})
        # A fresh instance (fresh memory tier) must find it on disk,
        # bit-identical.
        other = ArtifactCache(root)
        assert other.get(key) == {"listing": "L0:\n", "time_ns": 7}
        assert other.disk_hits == 1

    def test_disk_layout_is_sharded(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "ab" + "0" * 62
        ArtifactCache(root).put(key, {"x": 1})
        path = os.path.join(root, "objects", "ab", f"{key}.json")
        assert os.path.exists(path)
        with open(path) as handle:
            assert json.load(handle) == {"x": 1}

    def test_corrupt_entry_is_dropped(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "ef" + "0" * 62
        cache = ArtifactCache(root)
        cache.put(key, {"x": 1})
        path = os.path.join(root, "objects", "ef", f"{key}.json")
        with open(path, "w") as handle:
            handle.write("{ truncated")
        fresh = ArtifactCache(root)
        assert fresh.get(key) is None
        assert fresh.corrupt_entries == 1
        assert not os.path.exists(path)

    def test_non_dict_disk_entry_is_dropped(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "0f" + "0" * 62
        cache = ArtifactCache(root)
        cache.put(key, {"x": 1})
        path = os.path.join(root, "objects", "0f", f"{key}.json")
        with open(path, "w") as handle:
            handle.write("[1, 2]")
        fresh = ArtifactCache(root)
        assert fresh.get(key) is None
        assert fresh.corrupt_entries == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "cd" + "0" * 62
        ArtifactCache(root).put(key, {"x": 2})
        cache = ArtifactCache(root)
        assert cache.get(key) == {"x": 2}
        assert cache.disk_hits == 1
        assert cache.get(key) == {"x": 2}
        assert cache.memory_hits == 1  # second probe never touches disk

    def test_clear_memory_keeps_disk(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "11" + "0" * 62
        cache = ArtifactCache(root)
        cache.put(key, {"x": 3})
        cache.clear()
        assert cache.get(key) == {"x": 3}
        assert cache.disk_hits == 1

    def test_clear_disk_removes_objects(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "22" + "0" * 62
        cache = ArtifactCache(root)
        cache.put(key, {"x": 4})
        cache.clear(disk=True)
        assert ArtifactCache(root).get(key) is None

    def test_memory_tier_can_be_disabled(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "33" + "0" * 62
        cache = ArtifactCache(root, memory_entries=0)
        cache.put(key, {"x": 5})
        assert cache.get(key) == {"x": 5}
        assert cache.memory_hits == 0 and cache.disk_hits == 1

    def test_disk_bytes_are_the_stream_encoders(self, tmp_path):
        """The one-shot encode writes, byte for byte, what
        ``json.dump(payload, handle, sort_keys=True)`` wrote, on the 64
        payloads the serve-warm workload primes."""
        from bench.workloads import warm_set
        from repro.service.jobs import JobSpec, compute_job
        cache = ArtifactCache(str(tmp_path / "cache"))
        jobs = warm_set(12)
        assert len(jobs) == 64
        for job in jobs:
            spec = JobSpec.from_dict(job.wire)
            result = compute_job(spec)
            assert result.ok, (job.name, result.error)
            key = spec.canonical_key()
            cache.put(key, result.payload)
            stream = io.StringIO()
            json.dump(result.payload, stream, sort_keys=True)
            with open(cache._path(key), "rb") as handle:
                assert handle.read() == stream.getvalue().encode(), \
                    job.name

    def test_an_entry_the_stream_encoder_wrote_reads_back(self, tmp_path):
        root = str(tmp_path / "cache")
        key = "55" + "0" * 62
        payload = {"listing": "L0:\n  x = y\u00e9;\n", "time_ns": 7.5,
                   "stats": {"b": [1, 2], "a": None}, "ok": True}
        path = ArtifactCache(root)._path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        cache = ArtifactCache(root)
        assert cache.get(key) == payload
        assert cache.disk_hits == 1 and cache.corrupt_entries == 0

    def test_failed_disk_write_is_counted_and_raised(self):
        cache = ArtifactCache("/dev/null/not-a-directory")
        with pytest.raises(OSError):
            cache.put("44" + "0" * 62, {"x": 6})
        assert cache.put_errors == 1 and cache.puts == 1
        # The memory tier keeps what the disk refused.
        assert cache.get("44" + "0" * 62) == {"x": 6}


class TestSharedByThreads:
    """A pool's one cache is shared by its executor threads: no probe
    or store may be lost from the counters, whatever the interleaving."""

    THREADS, ROUNDS, KEYS = 8, 150, 12

    def test_counters_survive_concurrent_probes(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"), memory_entries=4)
        keys = [f"{n:02x}" + "0" * 62 for n in range(self.KEYS)]
        puts = [0] * self.THREADS
        wrong = []

        def worker(index):
            for step in range(self.ROUNDS):
                key = keys[(index + step) % self.KEYS]
                found = cache.get(key)
                if found is None:
                    cache.put(key, {"key": key})
                    puts[index] += 1
                elif found != {"key": key}:
                    wrong.append((key, found))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,),
                                        daemon=True)
                       for i in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        snap = cache.snapshot()
        assert snap["hits"] + snap["misses"] == self.THREADS * self.ROUNDS
        assert snap["memory_hits"] + snap["disk_hits"] == snap["hits"]
        assert snap["misses"] == snap["puts"] == sum(puts)
        assert snap["memory_entries"] <= 4
        assert snap["put_errors"] == snap["corrupt_entries"] == 0
