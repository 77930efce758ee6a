"""Report driver (--metrics-json, --workers, --cache-dir) and the one
path under it and under ``batch``'s bundle sweeps in
repro.harness.experiments: CONFIGURATIONS legs as ``run`` jobs through
one pool, under one address each."""

import json
import os
from collections import OrderedDict

import pytest

from repro.__main__ import main as repro_main
from repro.comm.optimizer import CommConfig
from repro.config import RunConfig
from repro.earth.faults import plan_from_cli
from repro.errors import ServiceError
from repro.harness.experiments import (
    bundle_jobs,
    leg_job,
    measure_bundles,
    measure_fig10,
    measure_table3,
    measure_utilization,
    run_legs,
    sweep_jobs,
)
from repro.harness.pipeline import (
    CONFIGURATIONS,
    run_four_ways,
    run_three_ways,
    simple_baseline_config,
)
from repro.harness.report import main as report_main
from repro.olden.loader import catalog, get_benchmark
from repro.service import jobs as service_jobs
from repro.service.jobs import execute_job, run_payload
from repro.service.pool import WorkerPool


class TestSweepJobs:
    def test_cross_product_in_benchmark_major_order(self):
        jobs = sweep_jobs([1, 2], benchmarks=["power", "tsp"],
                          small=True)
        assert [(j.benchmark, j.run.nodes) for j in jobs] == \
            [("power", 1), ("power", 2), ("tsp", 1), ("tsp", 2)]
        assert all(j.small for j in jobs)

    def test_defaults_to_the_full_catalog(self):
        jobs = sweep_jobs([4])
        assert len(jobs) == 10

    def test_fault_and_engine_options_propagate(self):
        jobs = sweep_jobs([1], benchmarks=["power"],
                          run=RunConfig(engine="ast", faults={"seed": 3}))
        assert jobs[0].run.engine == "ast"
        assert jobs[0].run.faults == {"seed": 3}


def _in_process(name, nodes, run_ways=run_four_ways, comm_config=None,
                **run_options):
    """The reference: ``run_three_ways`` / ``run_four_ways`` on the
    catalog's small problem, each result's deterministic payload."""
    spec = get_benchmark(name)
    results = run_ways(
        spec.source(), spec.filename, inline=spec.inline,
        config=RunConfig(nodes=nodes, args=tuple(spec.small_args),
                         max_stmts=spec.max_stmts, **run_options),
        comm_config=comm_config)
    return {configuration: run_payload(result)
            for configuration, result in results.items()}


class TestConfigurationsAreRunJobs:
    """The paper's bundle is a composition of plain ``run`` jobs: every
    leg the harness builds from CONFIGURATIONS returns what
    ``run_four_ways`` computes in process under that name."""

    @pytest.mark.parametrize("name", [spec.name for spec in catalog()])
    @pytest.mark.parametrize("nodes", [1, 4])
    def test_each_leg_is_the_bundles_entry(self, name, nodes):
        bundle = _in_process(name, nodes)
        assert list(bundle) == list(CONFIGURATIONS)
        for configuration in CONFIGURATIONS:
            leg = execute_job(leg_job(name, configuration, nodes,
                                      small=True)).raise_if_failed()
            assert leg.payload["run"] == bundle[configuration]

    def test_the_callers_comm_reaches_the_legs_without_their_own(self):
        comm = CommConfig(opt="probabilistic")
        for configuration, leg in CONFIGURATIONS.items():
            job = leg_job("power", configuration, 4, small=True, comm=comm)
            assert (job.comm == comm) == (leg.comm is None), configuration
        assert {name: leg.comm for name, leg in CONFIGURATIONS.items()
                if leg.comm is not None} \
            == {"simple": simple_baseline_config()}
        # The sequential leg does not optimize: no CommConfig moves
        # its address.
        assert leg_job("power", "sequential", 4, small=True,
                       comm=comm).canonical_key() \
            == leg_job("power", "sequential", 4, small=True).canonical_key()

    def test_sequential_pins_its_machine(self):
        job = leg_job("power", "sequential", 16, small=True)
        assert job.run.nodes == 1 and job.run.params == "sequential-c"
        assert job.canonical_key() == \
            leg_job("power", "sequential", 2, small=True).canonical_key()


def _skew_two_node_values(monkeypatch):
    """Make every served two-node run return a value off by one."""
    real = service_jobs.run_payload

    def skewed(result):
        payload = real(result)
        if result.num_nodes == 2:
            payload["value"] += 1
        return payload

    monkeypatch.setattr(service_jobs, "run_payload", skewed)


class TestOnePath:
    def test_rows_share_the_benchmarks_one_sequential_leg(self):
        bundles = measure_bundles([1, 2, 4], ["power"], small=True)
        assert list(bundles) == [("power", 1), ("power", 2), ("power", 4)]
        first = bundles["power", 1]["sequential"]
        assert all(bundle["sequential"] is first
                   for bundle in bundles.values())

    def test_jobs_with_one_address_are_submitted_once(self):
        jobs = bundle_jobs([1, 2, 4], ["power"], small=True)
        submitted = []

        def run_batch(specs):
            submitted.extend(specs)
            return [execute_job(spec) for spec in specs]

        results = run_legs(jobs, run_batch)
        assert list(results) == list(jobs) and len(jobs) == 3 * 3
        assert len(submitted) == 1 + 3 * 2
        assert len({id(results["power", nodes, "sequential"])
                    for nodes in (1, 2, 4)}) == 1

    def test_utilization_takes_the_benchmark_list(self):
        metrics = measure_utilization(2, ["power", "tsp"], small=True,
                                      rcache=True)
        bundles = measure_bundles([2], ["power", "tsp"], small=True,
                                  rcache=True)
        assert list(metrics) == ["power", "tsp"]
        for name, entry in metrics.items():
            assert list(entry) == list(CONFIGURATIONS)
            for configuration, run in bundles[name, 2].items():
                assert entry[configuration] == {
                    "time_ns": run["time_ns"], "nodes": run["num_nodes"],
                    "utilization": run["utilization"],
                    "stats": run["stats"]}

    def test_a_failed_leg_raises_with_its_code(self, monkeypatch):
        monkeypatch.setattr(get_benchmark("power"), "max_stmts", 10)
        with pytest.raises(ServiceError, match="budget") as failure:
            measure_table3((1,), benchmarks=["power"], small=True)
        assert failure.value.code == 4      # a simulator error's

    def test_an_unknown_benchmark_raises(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            measure_table3((1,), benchmarks=["nosuch"], small=True)

    def test_legs_that_disagree_raise(self, monkeypatch):
        _skew_two_node_values(monkeypatch)
        with pytest.raises(AssertionError, match="disagree"):
            measure_table3((2,), benchmarks=["power"], small=True)

    def test_the_pool_changes_no_number(self):
        inline = measure_table3((1, 2), benchmarks=["power"], small=True,
                                rcache=True)
        with WorkerPool(2, cache_dir=None) as pool:
            pooled = measure_table3((1, 2), benchmarks=["power"],
                                    small=True, rcache=True, pool=pool)
            bars = measure_fig10(2, benchmarks=["power"], small=True,
                                 pool=pool)
            # Figure 10 read Table III's legs: nothing new was run.
            assert pool.metrics.cache_misses == 7
            assert pool.metrics.cache_hits == 3
        assert [vars(row) for row in pooled] == \
            [vars(row) for row in inline]
        (direct,) = measure_fig10(2, benchmarks=["power"], small=True)
        assert bars[0].simple_counts == direct.simple_counts
        assert bars[0].optimized_counts == direct.optimized_counts
        assert bars[0].simple_total > bars[0].optimized_total > 0


class _Calls:
    """Counts what the service executor compiles and simulates (the
    Table I probes call the harness's own names and are not seen)."""

    def __init__(self, monkeypatch):
        self.compiles = []
        self.simulations = 0
        real_compile = service_jobs.compile_earthc
        real_execute = service_jobs.execute

        def compile_earthc(source, filename, **options):
            # The options that differ between a benchmark's programs.
            self.compiles.append((filename, options["optimize"],
                                  options["config"]))
            return real_compile(source, filename, **options)

        def execute(compiled, **options):
            self.simulations += 1
            return real_execute(compiled, **options)

        monkeypatch.setattr(service_jobs, "compile_earthc", compile_earthc)
        monkeypatch.setattr(service_jobs, "execute", execute)
        # A memo other tests warmed would hide compiles.
        monkeypatch.setattr(service_jobs, "_COMPILE_MEMO", OrderedDict())


class TestEachLegOnce:
    ARGV = ["--small", "--nodes", "1,2", "--benchmarks", "power,tsp",
            "--rcache", "--opt-sweep"]

    def test_every_table_shares_one_pool(self, monkeypatch, tmp_path,
                                         capsys):
        calls = _Calls(monkeypatch)
        out = tmp_path / "metrics.json"
        assert report_main(self.ARGV + ["--metrics-json", str(out)]) == 0
        # Per benchmark: one sequential leg, three legs at each of the
        # two counts, one probabilistic leg.  Figure 10, the sweep's
        # legacy row and --metrics-json add none.
        assert calls.simulations == 2 * (1 + 2 * 3 + 1)
        # ... over four programs each: sequential, simple, optimized,
        # optimized under the probabilistic heuristics.
        assert len(calls.compiles) == 2 * 4
        assert len(set(calls.compiles)) == len(calls.compiles)
        assert set(json.loads(out.read_text())["benchmarks"]["tsp"]) \
            == set(CONFIGURATIONS)

    def test_a_second_report_over_the_cache_dir_simulates_nothing(
            self, monkeypatch, tmp_path, capsys):
        argv = self.ARGV + ["--cache-dir", str(tmp_path / "cache")]
        assert report_main(argv) == 0
        first = capsys.readouterr().out
        calls = _Calls(monkeypatch)
        assert report_main(argv) == 0
        second = capsys.readouterr().out
        assert calls.simulations == 0 and calls.compiles == []

        def tables(text):
            return [line for line in text.splitlines()
                    if not line.startswith("(total harness time")]

        assert tables(second) == tables(first)
        assert "Table III" in first and "OptConfig sweep" in first


class TestBatchSweepsLegs:
    """``batch --kind three-way | four-way`` sweeps the legs ``report``
    sweeps: ``run`` jobs, each address once, one address space."""

    SWEEP = ["--small", "--benchmarks", "power,tsp", "--nodes", "1,2"]
    ARGV = ["batch", *SWEEP, "--workers", "0", "--json"]
    RUN_FLAGS = ["--faults", "7", "--fault-profile", "lossy",
                 "--opt-preset", "probabilistic", "--engine", "ast",
                 "--rcache-capacity", "32", "--rcache-line", "8"]

    def _swept(self, capsys, reference):
        """Check the dump on stdout: one ok ``run`` result per
        (benchmark, processors, configuration), in sweep order, each
        equal to ``reference(benchmark, processors)``'s entry."""
        results = json.loads(capsys.readouterr().out)
        expected = {(name, nodes, configuration): payload
                    for name in ("power", "tsp") for nodes in (1, 2)
                    for configuration, payload
                    in reference(name, nodes).items()}
        assert [(r["benchmark"], r["processors"], r["configuration"])
                for r in results] == list(expected)
        assert all(r["ok"] and r["kind"] == "run" for r in results)
        assert [r["payload"]["run"] for r in results] \
            == list(expected.values())
        return results

    def test_each_address_runs_once(self, monkeypatch, capsys):
        calls = _Calls(monkeypatch)
        assert repro_main(self.ARGV + ["--no-cache"]) == 0
        # Per benchmark: three programs; one sequential run and the
        # other two configurations at each of the two counts.
        assert len(calls.compiles) == 2 * 3
        assert calls.simulations == 2 * (1 + 2 * 2)
        self._swept(capsys, lambda name, nodes: _in_process(
            name, nodes, run_three_ways))

    def test_run_flags_reach_every_leg(self, capsys):
        assert repro_main(self.ARGV + ["--no-cache", "--kind", "four-way"]
                          + self.RUN_FLAGS) == 0
        results = self._swept(capsys, lambda name, nodes: _in_process(
            name, nodes, engine="ast",
            comm_config=CommConfig(opt="probabilistic"),
            faults=plan_from_cli(7, "lossy", None, None).spec(),
            rcache_capacity=32, rcache_line_words=8))
        assert len(results) == 2 * 2 * len(CONFIGURATIONS)

    def test_legs_that_disagree_end_the_batch(self, monkeypatch, capsys):
        _skew_two_node_values(monkeypatch)
        assert repro_main(["batch", "--small", "--benchmarks", "power",
                           "--nodes", "2", "--workers", "0",
                           "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: configurations disagree on the program result")
        assert captured.err.count("\n") == 1

    def test_report_and_batch_share_every_address(self, monkeypatch,
                                                  tmp_path, capsys):
        cache = tmp_path / "cache"

        def objects():
            return sum(len(files) for _, _, files in os.walk(cache))

        assert report_main(self.SWEEP + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        held = objects()
        assert held == 2 * (1 + 2 * 2)
        calls = _Calls(monkeypatch)
        assert repro_main(self.ARGV + ["--cache-dir", str(cache)]) == 0
        assert calls.simulations == 0 and calls.compiles == []
        results = self._swept(capsys, lambda name, nodes: _in_process(
            name, nodes, run_three_ways))
        assert all(r["cache"] == "hit" for r in results)
        assert objects() == held


class TestReportDriver:
    def test_metrics_json_structure(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert report_main(["--small", "--nodes", "1,2",
                            "--benchmarks", "power",
                            "--metrics-json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Table I" in text and "Table III" in text
        assert "Figure 10" in text
        assert "Utilization: power" in text
        document = json.loads(out.read_text())
        assert document["nodes"] == 2
        power = document["benchmarks"]["power"]
        for config in ("sequential", "simple", "optimized"):
            entry = power[config]
            assert entry["time_ns"] > 0
            assert "remote_reads" in entry["stats"]
        # The parallel configurations ran on both nodes; the
        # sequential baseline is single-node by construction.
        for config in ("simple", "optimized"):
            utilization = power[config]["utilization"]
            assert len(utilization["eu_utilization"]) == 2

    def test_workers_flag_produces_the_same_tables(self, capsys):
        assert report_main(["--small", "--nodes", "1,2",
                            "--benchmarks", "power",
                            "--workers", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert report_main(["--small", "--nodes", "1,2",
                            "--benchmarks", "power"]) == 0
        direct_out = capsys.readouterr().out

        def table3(text):
            lines = text.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("Table III"))
            return lines[start:start + 4]

        # Table I re-measures wall-clock-free simulated probes and the
        # Table III / Fig 10 payloads are deterministic, so the pooled
        # run renders byte-identical benchmark tables.
        assert table3(pooled_out) == table3(direct_out)
