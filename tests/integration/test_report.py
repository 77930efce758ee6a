"""Report driver (--metrics-json, --workers) and the batch-backed
sweep helpers in repro.harness.experiments."""

import json

import pytest

from repro.config import RunConfig
from repro.harness.experiments import (
    fig10_bars_from_payloads,
    measure_fig10,
    measure_fig10_pooled,
    measure_table3,
    measure_table3_pooled,
    rows_from_payloads,
    sweep_jobs,
)
from repro.harness.report import main as report_main
from repro.service.jobs import JobResult


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


class TestPayloadReconstruction:
    def _fake(self, time_seq, time_simple, time_opt, reads=2):
        stats = {"remote_reads": reads, "remote_writes": 1,
                 "remote_blkmovs": 0, "remote_blkmov_words": 0}
        def entry(t):
            return {"value": 1, "time_ns": t, "output": [],
                    "num_nodes": 1, "stats": stats, "utilization": {}}
        return JobResult(True, "three-way", "k", payload={
            "sequential": entry(time_seq),
            "simple": entry(time_simple),
            "optimized": entry(time_opt)})

    def test_rows_share_the_first_sequential_baseline(self):
        jobs = sweep_jobs([1, 4], benchmarks=["power"], small=True)
        results = [self._fake(100.0, 90.0, 80.0),
                   self._fake(999.0, 50.0, 40.0)]
        rows = rows_from_payloads(jobs, results)
        assert [r.processors for r in rows] == [1, 4]
        # Row 2's own sequential time (999) is ignored: the benchmark's
        # first row sets the baseline, as measure_table3 does.
        assert rows[1].sequential_ns == 100.0
        assert rows[1].optimized_speedup == pytest.approx(2.5)

    def test_failed_payload_raises(self):
        jobs = sweep_jobs([1], benchmarks=["power"], small=True)
        bad = JobResult(False, "three-way", None,
                        error={"type": "X", "message": "boom",
                               "code": 6})
        with pytest.raises(Exception, match="boom"):
            rows_from_payloads(jobs, [bad])


class TestPooledSweepsMatchInProcess:
    def test_table3_rows_identical(self):
        direct = measure_table3((1, 2), benchmarks=["power"],
                                small=True)
        pooled = measure_table3_pooled((1, 2), benchmarks=["power"],
                                       small=True, workers=0)
        assert len(pooled) == len(direct)
        for mine, theirs in zip(pooled, direct):
            assert mine.benchmark == theirs.benchmark
            assert mine.processors == theirs.processors
            assert mine.sequential_ns == theirs.sequential_ns
            assert mine.simple_ns == theirs.simple_ns
            assert mine.optimized_ns == theirs.optimized_ns

    def test_fig10_bars_identical(self):
        direct = measure_fig10(2, benchmarks=["power"], small=True)
        pooled = measure_fig10_pooled(2, benchmarks=["power"],
                                      small=True, workers=0)
        assert len(pooled) == 1
        assert pooled[0].simple_counts == direct[0].simple_counts
        assert pooled[0].optimized_counts == direct[0].optimized_counts

    def test_fig10_reconstruction_from_execute(self):
        jobs = sweep_jobs([2], benchmarks=["power"], small=True)
        from repro.service.jobs import execute_job
        bars = fig10_bars_from_payloads(
            jobs, [execute_job(job) for job in jobs])
        assert bars[0].benchmark == "power"
        assert bars[0].simple_total > bars[0].optimized_total > 0


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
