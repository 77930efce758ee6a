"""Regenerate every table and figure of the paper's evaluation.

Run as::

    python -m repro.harness.report [--small] [--nodes 1,2,4,8,16]
                                   [--metrics-json metrics.json]

Prints Table I (communication cost calibration), Table II (workloads),
Table III (performance improvement) and Figure 10 (dynamic communication
counts).  ``--rcache`` extends Table III with the fourth configuration:
the optimized program re-run with the per-node remote-data cache
(:mod:`repro.earth.rcache`) at its default geometry.  ``--opt-sweep``
appends the OptConfig comparison: the optimized leg compiled under the
``legacy`` vs ``probabilistic`` heuristic presets, with per-benchmark
dynamic remote-operation deltas.  ``--small`` uses
the reduced problem sizes (fast; used by the test suite), the default
uses the DESIGN.md sizes and takes a minute or two.  EXPERIMENTS.md
records a default run's output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.__main__ import _emit_error
from repro.config import RunConfig, int_list
from repro.errors import ReproError, UsageError
from repro.harness.experiments import (
    format_fig10,
    format_opt_sweep,
    format_table1,
    format_table2,
    format_table3,
    format_utilization,
    measure_fig10,
    measure_opt_sweep,
    measure_table1,
    measure_table3,
    measure_utilization,
)
from repro.olden.loader import catalog, get_benchmark
from repro.service.pool import WorkerPool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables/figures")
    parser.add_argument("--small", action="store_true",
                        help="use reduced problem sizes")
    parser.add_argument("--nodes", default="1,2,4,8,16",
                        help="comma-separated processor counts for "
                             "Table III")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--rcache", action="store_true",
                        help="add the fourth Table III configuration: "
                             "optimized + per-node remote-data cache")
    parser.add_argument("--opt-sweep", action="store_true",
                        dest="opt_sweep",
                        help="add the OptConfig sweep: dynamic remote "
                             "operations under the legacy vs "
                             "probabilistic heuristic presets")
    parser.add_argument("--metrics-json", default=None, metavar="FILE",
                        help="also write machine-readable metrics "
                             "(per-benchmark EU/SU utilization for the "
                             "simple and optimized configurations)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes of the pool every "
                             "benchmark leg runs through (0 = inline, "
                             "in this process; default)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed artifact cache root: a "
                             "leg found there is not run again, so an "
                             "interrupted report resumes (default: "
                             "memory only)")
    args = parser.parse_args(argv)

    # Everything the run can refuse, it refuses before the first table.
    try:
        processor_counts = int_list(args.nodes, "--nodes")
        if not processor_counts:
            raise UsageError("--nodes needs at least one processor count")
        for processors in processor_counts:
            RunConfig(nodes=processors)
        if args.workers < 0:
            raise UsageError(f"--workers must be >= 0, got {args.workers}")
        benchmarks = args.benchmarks.split(",") if args.benchmarks \
            else [spec.name for spec in catalog()]
        for name in benchmarks:
            try:
                get_benchmark(name)
            except KeyError as exc:
                raise UsageError(exc.args[0]) from None
        if args.metrics_json:
            open(args.metrics_json, "a").close()
    except (UsageError, OSError) as exc:
        return _emit_error(exc, json_mode=False)

    start = time.time()
    try:
        with WorkerPool(args.workers, cache_dir=args.cache_dir) as pool:
            _report(args, processor_counts, benchmarks, pool)
    except (ReproError, OSError, AssertionError) as exc:
        return _emit_error(exc, json_mode=False)
    print(f"(total harness time: {time.time() - start:.1f}s wall)")
    return 0


def _report(args, processor_counts, benchmarks, pool: WorkerPool) -> None:
    """Print every table.  All benchmark legs go through ``pool``, so
    a leg another table already ran is a cache hit."""
    print("=" * 72)
    print(format_table1(measure_table1()))
    print()
    print("=" * 72)
    print(format_table2())
    print()
    print("=" * 72)
    rows = measure_table3(processor_counts, benchmarks, small=args.small,
                          rcache=args.rcache, pool=pool)
    print(format_table3(rows))
    print()
    print("=" * 72)
    bars = measure_fig10(max(processor_counts), benchmarks,
                         small=args.small, pool=pool)
    print(format_fig10(bars))
    print()
    if args.opt_sweep:
        print("=" * 72)
        rows = measure_opt_sweep(min(4, max(processor_counts)),
                                 benchmarks, small=args.small, pool=pool)
        print(format_opt_sweep(rows))
        print()
    if args.metrics_json:
        nodes = max(processor_counts)
        metrics = measure_utilization(nodes, benchmarks, small=args.small,
                                      rcache=args.rcache, pool=pool)
        print("=" * 72)
        for name, entry in metrics.items():
            print(format_utilization(name, entry))
        with open(args.metrics_json, "w") as handle:
            json.dump({"nodes": nodes, "benchmarks": metrics}, handle,
                      indent=2, sort_keys=True)
        print(f"(metrics written to {args.metrics_json})")
        print()


if __name__ == "__main__":
    sys.exit(main())
