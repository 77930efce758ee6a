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

from repro.config import int_list
from repro.errors import EXIT_USAGE, UsageError
from repro.harness.experiments import (
    format_fig10,
    format_opt_sweep,
    format_table1,
    format_table2,
    format_table3,
    format_utilization,
    measure_fig10,
    measure_fig10_pooled,
    measure_opt_sweep,
    measure_table1,
    measure_table3,
    measure_table3_pooled,
    measure_utilization,
)
from repro.olden.loader import catalog


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
                        help="run Table III / Figure 10 through the "
                             "service worker pool with this many "
                             "processes (0 = in-process; default)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="with --workers: content-addressed "
                             "artifact cache root (default: no disk "
                             "cache)")
    args = parser.parse_args(argv)

    try:
        processor_counts = int_list(args.nodes, "--nodes")
        if not processor_counts:
            raise UsageError("--nodes needs at least one processor count")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None

    start = time.time()
    print("=" * 72)
    print(format_table1(measure_table1()))
    print()
    print("=" * 72)
    print(format_table2())
    print()
    print("=" * 72)
    if args.workers > 0:
        rows = measure_table3_pooled(processor_counts, benchmarks,
                                     small=args.small,
                                     workers=args.workers,
                                     cache_dir=args.cache_dir,
                                     rcache=args.rcache)
    else:
        rows = measure_table3(processor_counts, benchmarks,
                              small=args.small, rcache=args.rcache)
    print(format_table3(rows))
    print()
    print("=" * 72)
    if args.workers > 0:
        bars = measure_fig10_pooled(max(processor_counts), benchmarks,
                                    small=args.small,
                                    workers=args.workers,
                                    cache_dir=args.cache_dir)
    else:
        bars = measure_fig10(max(processor_counts), benchmarks,
                             small=args.small)
    print(format_fig10(bars))
    print()
    if args.opt_sweep:
        print("=" * 72)
        rows = measure_opt_sweep(min(4, max(processor_counts)),
                                 benchmarks, small=args.small)
        print(format_opt_sweep(rows))
        print()
    if args.metrics_json:
        names = benchmarks if benchmarks is not None \
            else [spec.name for spec in catalog()]
        nodes = max(processor_counts)
        metrics = {}
        print("=" * 72)
        for name in names:
            metrics[name] = measure_utilization(name, nodes,
                                                small=args.small,
                                                rcache=args.rcache)
            print(format_utilization(name, metrics[name]))
        with open(args.metrics_json, "w") as handle:
            json.dump({"nodes": nodes, "benchmarks": metrics}, handle,
                      indent=2, sort_keys=True)
        print(f"(metrics written to {args.metrics_json})")
        print()
    print(f"(total harness time: {time.time() - start:.1f}s wall)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
