"""Integration tests over the ten Olden benchmarks.

These run the whole toolchain (frontend -> analyses -> optimizer ->
simulator) and check the paper's core claims at the semantic level:

* all three configurations (sequential / simple / optimized) compute the
  same result at 1, 2 and 8 nodes (the 1/4/16-node runs, their
  determinism and their engine identity are pinned by
  ``tests/chaos/test_run_golden.py``);
* the optimized version never performs more communication operations;
* at the default sizes the optimization pays off on every benchmark.
"""

import pytest

from repro.harness.pipeline import run_three_ways
from repro.olden.loader import catalog, get_benchmark
from repro.config import RunConfig

BENCHMARKS = [spec.name for spec in catalog()]


@pytest.fixture(scope="module")
def results():
    """One small-size three-way run per benchmark at 4 nodes."""
    data = {}
    for spec in catalog():
        data[spec.name] = run_three_ways(
            spec.source(), spec.name, inline=spec.inline,
            config=RunConfig(nodes=4, args=tuple(spec.small_args)))
    return data


class TestEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_nontrivial_result(self, results, name):
        assert results[name]["sequential"].value != 0

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("nodes", [1, 2, 8])
    def test_agreement_across_node_counts(self, name, nodes):
        spec = get_benchmark(name)
        run_three_ways(spec.source(), name, inline=spec.inline,
                       config=RunConfig(nodes=nodes,
                                        args=tuple(spec.small_args)))


class TestCommunicationClaims:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_optimized_never_does_more_comm_ops(self, results, name):
        simple = results[name]["simple"].stats.total_comm_ops
        optimized = results[name]["optimized"].stats.total_comm_ops
        assert optimized <= simple

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_benchmarks_communicate(self, results, name):
        # They must actually exercise remote operations at 4 nodes.
        assert results[name]["simple"].stats.total_remote_ops > 0

    @pytest.mark.parametrize("name",
                             ["tsp", "health", "perimeter", "voronoi"])
    def test_optimizer_introduces_blkmovs(self, results, name):
        stats = results[name]["optimized"].stats
        assert stats.remote_blkmovs + stats.local_blkmovs > 0

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_sequential_config_has_no_remote_ops(self, results, name):
        assert results[name]["sequential"].stats.total_remote_ops == 0


class TestDefaultSizes:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_default_size_runs(self, name):
        spec = get_benchmark(name)
        res = run_three_ways(spec.source(), name, inline=spec.inline,
                             config=RunConfig(nodes=16,
                                              args=tuple(spec.default_args)))
        simple = res["simple"]
        optimized = res["optimized"]
        improvement = (simple.time_ns - optimized.time_ns) \
            / simple.time_ns * 100
        # At the full (scaled) sizes on 16 nodes, the optimization pays
        # off on every benchmark (the paper's headline claim).
        assert improvement > 0, f"{name}: {improvement:.2f}%"
