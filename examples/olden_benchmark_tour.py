#!/usr/bin/env python3
"""Run every Olden benchmark in the catalog (scaled sizes) and print
a mini version of Table III and Figure 10 -- the paper's five plus
the rest of the suite.

Run:  python examples/olden_benchmark_tour.py [--nodes N]
"""

import argparse

from repro import RunConfig, run_three_ways
from repro.olden.loader import catalog


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--full", action="store_true",
                        help="use the full (DESIGN.md) problem sizes")
    args = parser.parse_args()

    print(f"{'benchmark':<11}{'value':>12}{'seq(ms)':>9}{'simple':>9}"
          f"{'optim':>9}{'impr%':>7} | {'ops simple -> optimized'}")
    print("-" * 86)
    for spec in catalog():
        run_args = spec.default_args if args.full else spec.small_args
        results = run_three_ways(
            spec.source(), spec.name, inline=spec.inline,
            config=RunConfig(nodes=args.nodes, args=tuple(run_args),
                             max_stmts=spec.max_stmts))
        seq = results["sequential"]
        simple = results["simple"]
        optimized = results["optimized"]
        improvement = (simple.time_ns - optimized.time_ns) \
            / simple.time_ns * 100
        ops_simple = simple.stats.comm_breakdown()
        ops_opt = optimized.stats.comm_breakdown()
        print(f"{spec.name:<11}{simple.value:>12}"
              f"{seq.time_ns / 1e6:>9.3f}"
              f"{simple.time_ns / 1e6:>9.3f}"
              f"{optimized.time_ns / 1e6:>9.3f}"
              f"{improvement:>7.1f} | "
              f"r:{ops_simple['read_data']}->{ops_opt['read_data']} "
              f"w:{ops_simple['write_data']}->{ops_opt['write_data']} "
              f"b:{ops_simple['blkmov']}->{ops_opt['blkmov']}")


if __name__ == "__main__":
    main()
