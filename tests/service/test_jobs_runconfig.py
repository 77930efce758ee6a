"""Service jobs key their artifact cache off RunConfig.to_json().

The cache key embeds the full serialized run config, so *every* run
option -- current and future -- changes the key automatically.  These
tests pin the aliasing rules that matter: run/four-way keys vary with
the rcache geometry, three-way keys normalize it away (the three legs
ignore the cache), and four-way jobs round-trip and execute end to end.
"""

import pytest

from repro.config import RunConfig
from repro.errors import ServiceError
from repro.service.jobs import JOB_KINDS, JobSpec, execute_job

SOURCE = """
int main()
{
    int *p;
    int x;
    int y;
    p = (int *) malloc(sizeof(int)) @ 1;
    *p = 21;
    x = *p;
    y = *p;
    return x + y;
}
"""


def spec(kind="run", **overrides):
    options = dict(kind=kind, source=SOURCE, nodes=2)
    options.update(overrides)
    return JobSpec(**options)


class TestCacheKeys:
    def test_key_embeds_the_full_run_config(self):
        resolved = spec().resolved()
        config = RunConfig.from_json(resolved["run"])
        assert config.nodes == 2
        assert config.rcache_capacity == 0

    def test_run_key_varies_with_rcache_geometry(self):
        base = spec().canonical_key()
        assert spec().canonical_key() == base
        assert spec(rcache_capacity=64).canonical_key() != base
        assert spec(rcache_capacity=64, rcache_line_words=8) \
            .canonical_key() != spec(rcache_capacity=64).canonical_key()

    def test_three_way_key_ignores_rcache_fields(self):
        # run_three_ways never builds a cache, so equivalent jobs must
        # share cached payloads regardless of the requested geometry.
        base = spec(kind="three-way").canonical_key()
        assert spec(kind="three-way",
                    rcache_capacity=64).canonical_key() == base
        assert spec(kind="three-way", rcache_capacity=64,
                    rcache_line_words=8).canonical_key() == base

    def test_four_way_key_keeps_rcache_fields(self):
        assert spec(kind="four-way",
                    rcache_capacity=64).canonical_key() \
            != spec(kind="four-way").canonical_key()

    def test_engine_never_aliases_cached_runs(self):
        assert spec(engine="ast").canonical_key() \
            != spec(engine="codegen").canonical_key()


class TestFourWayJobs:
    def test_kind_is_registered(self):
        assert "four-way" in JOB_KINDS

    def test_round_trips_through_dict(self):
        job = spec(kind="four-way", rcache_capacity=32,
                   rcache_line_words=8)
        restored = JobSpec.from_dict(job.to_dict())
        assert restored.run.rcache_capacity == 32
        assert restored.run.rcache_line_words == 8
        assert restored.canonical_key() == job.canonical_key()

    def test_executes_all_four_legs(self):
        result = execute_job(spec(kind="four-way", rcache_capacity=8))
        result.raise_if_failed()
        payload = result.payload
        assert set(payload) == {"sequential", "simple", "optimized",
                                "rcached"}
        rcached, optimized = payload["rcached"], payload["optimized"]
        assert rcached["value"] == optimized["value"] == 42
        # The rcached leg runs the *optimized* program, whose forwarding
        # already removed this toy's reuse; the leg still reports the
        # cache counters so real workloads surface their hits.
        assert "rcache_hits" in rcached["stats"]

    def test_run_job_reports_cache_counters(self):
        # optimize=False keeps the repeated read that the cache absorbs
        # (the optimizer would forward it away entirely).
        result = execute_job(spec(rcache_capacity=8, optimize=False))
        result.raise_if_failed()
        stats = result.payload["run"]["stats"]
        assert stats["rcache_hits"] > 0
        plain = execute_job(spec(optimize=False)).payload["run"]["stats"]
        assert stats["remote_reads"] < plain["remote_reads"]


class TestValidation:
    def test_bad_geometry_rejected_at_submission(self):
        with pytest.raises(ServiceError):
            spec(rcache_capacity=-1)
        with pytest.raises(ServiceError):
            spec(rcache_line_words=0)
