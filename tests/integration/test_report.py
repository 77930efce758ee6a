"""Report driver (--metrics-json, --workers, --cache-dir) and the one
path under it in repro.harness.experiments: CONFIGURATIONS legs as
``run`` jobs through one pool."""

import json
from collections import OrderedDict

import pytest

from repro.config import RunConfig
from repro.errors import ServiceError
from repro.harness.experiments import (
    leg_job,
    measure_bundles,
    measure_fig10,
    measure_table3,
    sweep_jobs,
)
from repro.harness.pipeline import CONFIGURATIONS
from repro.harness.report import main as report_main
from repro.olden.loader import catalog, get_benchmark
from repro.service import jobs as service_jobs
from repro.service.jobs import JobSpec, execute_job
from repro.service.pool import WorkerPool


class TestSweepJobs:
    def test_cross_product_in_benchmark_major_order(self):
        jobs = sweep_jobs([1, 2], benchmarks=["power", "tsp"],
                          small=True)
        assert [(j.benchmark, j.run.nodes) for j in jobs] == \
            [("power", 1), ("power", 2), ("tsp", 1), ("tsp", 2)]
        assert all(j.kind == "three-way" and j.small for j in jobs)

    def test_defaults_to_the_full_catalog(self):
        jobs = sweep_jobs([4])
        assert len(jobs) == 10

    def test_fault_and_engine_options_propagate(self):
        jobs = sweep_jobs([1], benchmarks=["power"],
                          run=RunConfig(engine="ast", faults={"seed": 3}))
        assert jobs[0].run.engine == "ast"
        assert jobs[0].run.faults == {"seed": 3}


class TestConfigurationsAreRunJobs:
    """``three-way`` / ``four-way`` are bundles of plain ``run`` jobs:
    every leg the harness builds from CONFIGURATIONS returns what the
    bundle job returns under that name."""

    @pytest.mark.parametrize("name", [spec.name for spec in catalog()])
    @pytest.mark.parametrize("nodes", [1, 4])
    def test_each_leg_is_the_bundles_entry(self, name, nodes):
        bundle = execute_job(JobSpec(
            "four-way", benchmark=name, small=True,
            nodes=nodes)).raise_if_failed().payload
        assert list(bundle) == list(CONFIGURATIONS)
        for configuration in CONFIGURATIONS:
            leg = execute_job(leg_job(name, configuration, nodes,
                                      small=True)).raise_if_failed()
            assert leg.payload["run"] == bundle[configuration]

    def test_heuristics_reach_only_the_tuned_legs(self):
        run = RunConfig(opt="probabilistic")
        for configuration, leg in CONFIGURATIONS.items():
            job = leg_job("power", configuration, 4, small=True, run=run)
            assert (job.run.opt is not None) == leg.tuned, configuration
        assert [name for name, leg in CONFIGURATIONS.items()
                if leg.tuned] == ["optimized", "rcached"]

    def test_sequential_pins_its_machine(self):
        job = leg_job("power", "sequential", 16, small=True)
        assert job.run.nodes == 1 and job.run.params == "sequential-c"
        assert job.canonical_key() == \
            leg_job("power", "sequential", 2, small=True).canonical_key()


class TestOnePath:
    def test_rows_share_the_benchmarks_one_sequential_leg(self):
        bundles = measure_bundles([1, 2, 4], ["power"], small=True)
        assert list(bundles) == [("power", 1), ("power", 2), ("power", 4)]
        first = bundles["power", 1]["sequential"]
        assert all(bundle["sequential"] is first
                   for bundle in bundles.values())

    def test_a_failed_leg_raises_with_its_code(self, monkeypatch):
        monkeypatch.setattr(get_benchmark("power"), "max_stmts", 10)
        with pytest.raises(ServiceError, match="budget") as failure:
            measure_table3((1,), benchmarks=["power"], small=True)
        assert failure.value.code == 4      # a simulator error's

    def test_an_unknown_benchmark_raises(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            measure_table3((1,), benchmarks=["nosuch"], small=True)

    def test_legs_that_disagree_raise(self, monkeypatch):
        real = service_jobs.run_payload

        def skewed(result):
            payload = real(result)
            if result.num_nodes == 2:
                payload["value"] += 1
            return payload

        monkeypatch.setattr(service_jobs, "run_payload", skewed)
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
                                  options["config"], repr(options["opt"])))
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
