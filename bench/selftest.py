"""Checks of the benchmark's own arithmetic and wiring.

    python3 bench/selftest.py        (or: python -m bench.selftest)

Fast (a few seconds): no workload is timed.  The last check runs one
quick workload against a corrupted expectation and requires it to fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [path for path in (ROOT, os.path.join(ROOT, "src"))
                if path not in sys.path]

from bench import spans, stats  # noqa: E402


def check_self_time():
    # parent 0..10 with children 1..4 and 3..6 (overlapping) and a
    # grandchild 1..2: parent self = 10 - 5, first child self = 3 - 1.
    records = [["op", "bench", 0, 0.0, 10.0, None],
               ["a", "x", 0, 1.0, 4.0, 0],
               ["b", "y", 0, 3.0, 6.0, 0],
               ["c", "z", 0, 1.0, 2.0, 1]]
    table = spans.self_times(records)
    assert table[("bench", "op")] == (5.0, 1), table
    assert table[("x", "a")] == (2.0, 1), table
    assert table[("y", "b")] == (3.0, 1), table
    assert table[("z", "c")] == (1.0, 1), table
    # A child reaching past its parent is clipped to it.
    clipped = spans.self_times([["p", "l", 0, 0.0, 2.0, None],
                                ["q", "l", 0, 1.0, 5.0, 0]])
    assert clipped[("l", "p")] == (1.0, 1), clipped
    recorder = spans.Spans("w", enabled=True)
    with recorder.span("outer", "bench", op_id=7) as outer:
        with recorder.span("inner", "earth"):
            pass
        recorder.add("worker", "service", 0.0, 0.0, outer)
    assert [r[5] for r in recorder.records] == [None, 0, 0]
    assert [r[2] for r in recorder.records] == [7, 7, 7]
    off = spans.Spans("w", enabled=False)
    with off.span("outer", "bench"):
        pass
    assert off.records == []


def check_tail_rule():
    # p90 needs ten samples beyond it: 100 ops, not 99.
    few = [("a", float(v)) for v in range(50)] \
        + [("b", float(v)) for v in range(100, 149)]
    assert stats.tail(few) == 124.0            # slowest input's median
    assert stats.tail(few + [("b", 149.0)]) == stats.percentile(
        [v for _, v in few] + [149.0], 90)     # 100 ops: a real p90
    assert stats.percentile(list(range(101)), 90) == 90
    assert stats.percentile([1.0, 3.0], 50) == 2.0


def check_gmean_of_medians():
    samples = [("a", 1.0), ("a", 100.0), ("a", 4.0),     # median 4
               ("b", 9.0), ("b", 9.0)]                   # median 9
    assert abs(stats.gmean_of_input_medians(samples) - 6.0) < 1e-12
    assert list(stats.input_medians(samples)) == ["a", "b"]


def check_bounds():
    assert stats.within_bound(100.0, 110.0, "lower", 0.10)
    assert not stats.within_bound(100.0, 110.1, "lower", 0.10)
    assert stats.within_bound(100.0, 90.0, "higher", 0.10)
    assert not stats.within_bound(100.0, 89.9, "higher", 0.10)
    assert stats.within_bound(100.0, 50.0, "lower", 0.0)      # better
    assert not stats.within_bound(1.5, 1.5000001, "lower", 0.0)  # exact
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert 0.0 < stats.quartile_spread(values) < 0.03


def check_digest_stability():
    from repro import RunConfig, compile_source, execute
    from repro.olden.loader import get_benchmark
    from bench.workloads import sim_record

    spec = get_benchmark("power")
    digests = set()
    for _ in range(2):
        compiled = compile_source(spec.source(), spec.filename,
                                  optimize=True, inline=spec.inline)
        result = execute(compiled, config=RunConfig(
            nodes=4, args=spec.small_args))
        digests.add(stats.sim_digest([sim_record(result)]))
    assert len(digests) == 1, digests


def check_manifest():
    from bench.layers import METRICS
    from bench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == METRICS
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "setup_s", "op_ms_gmean", "op_ms_p90", "ops_per_s", "peak_rss_mb"}
    assert manifest["paths"] == ["bench"]


def check_generator():
    from bench.workloads import cold_stream, generated_programs, warm_set

    assert generated_programs(3, 12) == generated_programs(3, 40)[:12]
    assert generated_programs(3, 12) != generated_programs(4, 12)
    jobs = cold_stream(3, 90)
    keys = {json.dumps(job.wire, sort_keys=True) for job in jobs}
    assert len(keys) == 90
    assert [i for i, job in enumerate(jobs) if job.olden] == [29, 59, 89]
    assert all("engine" not in job.wire for job in jobs)
    assert len(warm_set(3)) == 64


def check_corrupted_expectation():
    """A wrong reference must fail the run and show in the counts."""
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    expected["olden"]["power"]["default"]["value"] = -1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", dir=os.path.join(HERE, "out"),
            delete=False) as handle:
        json.dump(expected, handle)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "sim-olden", "--quick", "--expected", handle.name],
            capture_output=True, text=True, timeout=120)
    finally:
        os.unlink(handle.name)
    assert done.returncode != 0, done.stdout
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert result["correct"] is False and result["failed"] == 1, result
    assert result["attempted"] == 10, result


CHECKS = (check_self_time, check_tail_rule, check_gmean_of_medians,
          check_bounds, check_digest_stability, check_manifest,
          check_generator, check_corrupted_expectation)


def main() -> int:
    for check in CHECKS:
        check()
        print(f"ok   {check.__name__}")
    print(f"{len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
