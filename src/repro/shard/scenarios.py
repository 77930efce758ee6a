"""Large-node scenario catalog for the sharded simulator.

Four fixed scenarios -- 512 and 1024 simulated nodes over two Olden
benchmarks and one generated mesh workload -- sized so that a sharded
run finishes in seconds, not hours.  (Scenario cost is dominated by
barrier rounds, roughly ``sim_time / shard_window_ns``; the catalog
keeps per-scenario simulated time in the tens-of-milliseconds range so
the round count stays in the tens of thousands.)

One catalog, three consumers:

* ``bench/`` -- the ``shard-mst512`` workload and the ``shard.*``
  per-layer metrics (single-vs-sharded wall-clock);
* the CI ``shard-smoke`` job -- runs ``mesh512`` under ``--shards 4``,
  asserts bit-identity against the single-process machine, and uploads
  the merged event trace;
* the EXPERIMENTS.md large-node table.

CLI::

    PYTHONPATH=src python -m repro.shard.scenarios --list
    PYTHONPATH=src python -m repro.shard.scenarios mesh512 --shards 4 \
        --check --trace-out merged_trace.json --json

``--check`` also runs the scenario single-process and exits non-zero
unless every observable (value, output, simulated time, stats, trace)
is identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import RunConfig
from repro.errors import ReproError, UsageError, exit_code_for

#: Trace ring size used when the CLI records a merged trace: large
#: enough to span many barrier windows, small enough to upload.
TRACE_CAPACITY = 20_000


@dataclass(frozen=True)
class Scenario:
    """One named large-node configuration."""

    name: str
    kind: str               #: ``"olden"`` or ``"workload"``
    program: str            #: Olden benchmark name, or workload shape
    seed: int               #: workload generator seed (olden: unused)
    nodes: int
    args: Tuple[int, ...]

    def describe(self) -> str:
        src = (self.program if self.kind == "olden"
               else f"generated {self.program} (seed {self.seed})")
        return (f"{self.name}: {src}, {self.nodes} nodes, "
                f"args {self.args}")


SCENARIOS = {
    scenario.name: scenario for scenario in (
        Scenario("mst512", "olden", "mst", 0, 512, (64, 16)),
        Scenario("em3d512", "olden", "em3d", 0, 512, (64, 2)),
        Scenario("em3d1024", "olden", "em3d", 0, 1024, (64, 2)),
        Scenario("mesh512", "workload", "mesh", 512, 512, (256, 1)),
    )
}


def compile_scenario(scenario: Scenario):
    """Compile the scenario's program (optimized, benchmark settings)."""
    from repro.harness.pipeline import compile_earthc

    if scenario.kind == "olden":
        from repro.olden.loader import catalog
        spec = next(s for s in catalog() if s.name == scenario.program)
        return compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    from repro.workload import generate_source
    source = generate_source(random.Random(scenario.seed),
                             scenario.program)
    return compile_earthc(
        source, f"{scenario.program}{scenario.seed}.ec", optimize=True)


def config_for(scenario: Scenario, *, shards: int = 1,
               trace: bool = False) -> RunConfig:
    return RunConfig(nodes=scenario.nodes, shards=shards,
                     args=scenario.args, trace=trace,
                     trace_capacity=TRACE_CAPACITY if trace else None)


def _mismatches(base, sharded) -> list:
    """Field-by-field bit-identity check; empty list means identical."""
    bad = []
    checks = [
        ("value", base.value, sharded.value),
        ("output", base.output, sharded.output),
        ("time_ns", base.time_ns, sharded.time_ns),
        ("stats", base.stats.snapshot(), sharded.stats.snapshot()),
        ("eu_busy_ns", base.eu_busy_ns, sharded.eu_busy_ns),
        ("su_busy_ns", base.su_busy_ns, sharded.su_busy_ns),
    ]
    if base.tracer is not None and sharded.tracer is not None:
        checks.append(("trace_events", list(base.tracer.events),
                       list(sharded.tracer.events)))
        checks.append(("trace_dropped", base.tracer.dropped,
                       sharded.tracer.dropped))
    for field, want, got in checks:
        if want != got:
            bad.append(field)
    return bad


def run_scenario(name: str, *, shards: int, check: bool = False,
                 trace_out: Optional[str] = None) -> dict:
    """Run one catalog scenario and return a JSON-ready report."""
    if name not in SCENARIOS:
        raise UsageError(
            f"unknown scenario {name!r} "
            f"(known: {', '.join(sorted(SCENARIOS))})")
    from repro.harness.pipeline import execute

    scenario = SCENARIOS[name]
    trace = trace_out is not None
    compiled = compile_scenario(scenario)
    config = config_for(scenario, shards=shards, trace=trace)

    started = time.perf_counter()
    sharded = execute(compiled, config=config)
    sharded_wall = time.perf_counter() - started

    report = {
        "scenario": name,
        "description": scenario.describe(),
        "nodes": scenario.nodes,
        "shards": shards,
        "value": sharded.value,
        "sim_time_ns": sharded.time_ns,
        "sharded_wall_s": round(sharded_wall, 3),
    }
    if check:
        started = time.perf_counter()
        base = execute(compiled, config=config.replace(shards=1))
        report["single_wall_s"] = round(
            time.perf_counter() - started, 3)
        bad = _mismatches(base, sharded)
        report["identical"] = not bad
        if bad:
            report["mismatched_fields"] = bad
    if trace:
        with open(trace_out, "w") as fh:
            json.dump({"scenario": name, "shards": shards,
                       "dropped": sharded.tracer.dropped,
                       "events": list(sharded.tracer.events)},
                      fh, default=repr)
        report["trace_events"] = len(sharded.tracer.events)
        report["trace_dropped"] = sharded.tracer.dropped
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard.scenarios",
        description="Run one large-node scenario from the shard "
                    "catalog.")
    parser.add_argument("scenario", nargs="?",
                        help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list the catalog and exit")
    parser.add_argument("--shards", type=int, default=4, metavar="K",
                        help="worker process count (default 4)")
    parser.add_argument("--check", action="store_true",
                        help="also run single-process and assert "
                             "bit-identity (non-zero exit on mismatch)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record the merged event trace (last "
                             f"{TRACE_CAPACITY} events) as JSON")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    opts = parser.parse_args(argv)

    if opts.list:
        for scenario in SCENARIOS.values():
            print(scenario.describe())
        return 0
    if not opts.scenario:
        parser.error("scenario name required (or --list)")
    try:
        report = run_scenario(opts.scenario, shards=opts.shards,
                              check=opts.check,
                              trace_out=opts.trace_out)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return exit_code_for(err)
    if opts.json:
        print(json.dumps(report, indent=2, default=repr))
    else:
        for key, value in report.items():
            print(f"{key:18} {value}")
    if opts.check and not report["identical"]:
        print("error: sharded run diverged from single-process run: "
              + ", ".join(report["mismatched_fields"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
