"""Service jobs key their artifact cache off RunConfig.to_json().

The cache key embeds the full serialized run config, so *every* run
option -- current and future -- changes the key automatically.  These
tests pin the aliasing rules that matter: run keys vary with the rcache
geometry and the engine, and a cached run executes end to end.
"""

import pytest

from repro.config import RunConfig
from repro.errors import ServiceError
from repro.service.jobs import JobSpec, execute_job

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

    def test_engine_never_aliases_cached_runs(self):
        assert spec(engine="ast").canonical_key() \
            != spec(engine="codegen").canonical_key()


class TestCachedRuns:
    def test_cached_run_of_the_optimized_program(self):
        optimized = execute_job(spec()).raise_if_failed().payload["run"]
        rcached = execute_job(spec(rcache_capacity=8)) \
            .raise_if_failed().payload["run"]
        assert rcached["value"] == optimized["value"] == 42
        # The optimizer's forwarding already removed this toy's reuse;
        # the cached run still reports the cache counters so real
        # workloads surface their hits.
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
