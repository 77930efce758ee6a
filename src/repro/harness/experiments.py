"""Experiment drivers regenerating the paper's tables and figures.

* :func:`measure_table1` -- communication cost microbenchmarks
  (Table I): sequential and pipelined read/write/blkmov costs measured
  end-to-end through the simulator (not read off the constants).
* :func:`table2_rows` -- the benchmark inventory (Table II analogue).
* :func:`measure_table3` -- per-benchmark sequential/simple/optimized
  times over processor counts (Table III), optionally extended with a
  fourth *rcached* configuration: the optimized program re-run with
  the per-node remote-data cache (:mod:`repro.earth.rcache`) enabled
  at its default geometry.
* :func:`measure_fig10` -- normalized dynamic communication operation
  counts split into read-data / write-data / blkmov (Figure 10).
* :func:`measure_opt_sweep` -- the optimized leg under the legacy vs
  probabilistic heuristic presets.

Everything below Table II is one path: a measurement names the legs it
needs -- ``(benchmark, configuration, processors)``, each a plain
``run`` job (:func:`leg_job`) over a row of
:data:`~repro.harness.pipeline.CONFIGURATIONS` -- runs them through one
:class:`~repro.service.pool.WorkerPool` and reads its rows from the
payloads.  Hand every measurement the same pool and a leg two tables
share is computed once.  ``python -m repro batch`` sweeps the same legs
(:func:`bundle_jobs`, :func:`run_legs`, :func:`bundles_of`), so a cache
directory the report filled answers it, and the other way round.

Each function returns plain data structures; ``format_*`` helpers render
them in the paper's layout.  ``python -m repro.harness.report`` prints
everything (and is what EXPERIMENTS.md records).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.optconfig import OPT_PRESETS
from repro.config import RunConfig
from repro.earth.stats import MachineStats
from repro.harness.pipeline import (
    CONFIGURATIONS,
    check_same_value,
    compile_earthc,
    execute,
    simple_baseline_config,
)
from repro.olden.loader import catalog
from repro.service.jobs import JobResult, JobSpec
from repro.service.pool import WorkerPool

# ---------------------------------------------------------------------------
# Table I: communication costs
# ---------------------------------------------------------------------------

#: The paper's Table I (nanoseconds).
PAPER_TABLE1 = {
    ("read", "sequential"): 7109.0,
    ("read", "pipelined"): 1908.0,
    ("write", "sequential"): 6458.0,
    ("write", "pipelined"): 1749.0,
    ("blkmov", "sequential"): 9700.0,
    ("blkmov", "pipelined"): 2602.0,
}

_PROBE_TEMPLATE = """
struct cell {{
    int f0; int f1; int f2; int f3;
    int f4; int f5; int f6; int f7;
}};

struct word1 {{ int v; }};

int probe(struct cell *p, struct word1 *q, int n)
{{
    int i;
    int sink;
    {decls}
    sink = 0;
    for (i = 0; i < n; i++) {{
{body}
        sink = sink + i;
    }}
    return sink;
}}

int main(int n)
{{
    struct cell *p;
    struct word1 *q;
    int result;
    p = (struct cell *) malloc(sizeof(struct cell)) @ 1;
    q = (struct word1 *) malloc(sizeof(struct word1)) @ 1;
    p->f0 = 7;
    q->v = 3;
    result = probe(p, q, n);
    return result;
}}
"""


def _probe_source(kind: str, ops_per_iter: int) -> str:
    """A 2-node probe running ``ops_per_iter`` remote operations of
    ``kind`` per loop iteration (0 measures the loop overhead).

    Operations within one iteration target *distinct* fields/buffers so
    the optimizer's redundancy elimination cannot merge them and
    consecutive block moves do not serialize on one buffer.
    """
    decls: List[str] = []
    lines: List[str] = []
    if kind == "read":
        for k in range(ops_per_iter):
            decls.append(f"int v{k};")
            lines.append(f"        v{k} = p->f{k % 8};")
        if ops_per_iter:
            lines.append("        sink = sink + v0;")
    elif kind == "write":
        for k in range(ops_per_iter):
            lines.append(f"        p->f{k % 8} = i;")
    elif kind == "blkmov":
        for k in range(ops_per_iter):
            decls.append(f"struct word1 buf{k};")
            lines.append(f"        blkmov(q, &buf{k}, 1);")
        if ops_per_iter:
            lines.append("        sink = sink + buf0.v;")
    else:  # pragma: no cover
        raise ValueError(kind)
    return _PROBE_TEMPLATE.format(decls="\n    ".join(decls),
                                  body="\n".join(lines) or "        ;")


def _probe_time(kind: str, ops_per_iter: int, iters: int,
                pipelined: bool) -> float:
    source = _probe_source(kind, ops_per_iter)
    if pipelined:
        compiled = compile_earthc(source, "probe.ec", optimize=True,
                                  config=simple_baseline_config())
    else:
        compiled = compile_earthc(source, "probe.ec", optimize=False)
    result = execute(compiled, config=RunConfig(nodes=2, args=(iters,)))
    return result.time_ns


def measure_table1(iters: int = 200) -> Dict[Tuple[str, str], float]:
    """Measured per-operation costs, by differencing against a probe
    with one fewer operation per iteration (removing loop overheads).

    Sequential mode runs unoptimized programs (synchronous remote
    operations, one per iteration); pipelined mode runs split-phase
    programs with several independent operations per iteration and
    reports the *marginal* cost of one more operation -- the same
    methodology the paper's numbers imply.
    """
    measured: Dict[Tuple[str, str], float] = {}
    for kind in ("read", "write", "blkmov"):
        base = _probe_time(kind, 0, iters, pipelined=False)
        one = _probe_time(kind, 1, iters, pipelined=False)
        measured[(kind, "sequential")] = (one - base) / iters
        # Marginal cost between two issue-bound unroll factors (at 4+
        # back-to-back operations the EU, not the round trip, is the
        # bottleneck, which is what "pipelined" means in Table I).
        few = _probe_time(kind, 4, iters, pipelined=True)
        many = _probe_time(kind, 8, iters, pipelined=True)
        measured[(kind, "pipelined")] = (many - few) / (4 * iters)
    return measured


def format_table1(measured: Dict[Tuple[str, str], float]) -> str:
    lines = [
        "Table I: cost of communication on the simulated EARTH-MANNA (ns)",
        f"{'operation':<14}{'sequential':>12}{'(paper)':>10}"
        f"{'pipelined':>12}{'(paper)':>10}",
    ]
    for kind, label in (("read", "Read word"), ("write", "Write word"),
                        ("blkmov", "Blkmov word")):
        seq = measured[(kind, "sequential")]
        pipe = measured[(kind, "pipelined")]
        lines.append(
            f"{label:<14}{seq:>12.0f}{PAPER_TABLE1[(kind, 'sequential')]:>10.0f}"
            f"{pipe:>12.0f}{PAPER_TABLE1[(kind, 'pipelined')]:>10.0f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table II: benchmark inventory
# ---------------------------------------------------------------------------


def table2_rows() -> List[Dict[str, str]]:
    return [
        {
            "benchmark": spec.name,
            "description": spec.description,
            "paper_size": spec.paper_size,
            "our_size": spec.our_size,
        }
        for spec in catalog()
    ]


def format_table2() -> str:
    lines = ["Table II: benchmark programs",
             f"{'benchmark':<11}{'paper size':<26}{'our (scaled) size':<34}"]
    for row in table2_rows():
        lines.append(f"{row['benchmark']:<11}{row['paper_size']:<26}"
                     f"{row['our_size']:<34}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table III: performance improvement
# ---------------------------------------------------------------------------

#: The paper's % improvement (optimized vs simple), indexed by
#: (benchmark, processors) -- for side-by-side reporting.
PAPER_TABLE3_IMPROVEMENT = {
    ("power", 1): 1.48, ("power", 2): 4.31, ("power", 4): 5.38,
    ("power", 8): 6.65, ("power", 16): 7.07,
    ("tsp", 1): 2.56, ("tsp", 2): 3.28, ("tsp", 4): 4.93,
    ("tsp", 8): 8.14, ("tsp", 16): 11.93,
    ("health", 1): 0.03, ("health", 2): 4.19, ("health", 4): 7.33,
    ("health", 8): 11.82, ("health", 16): 14.88,
    ("perimeter", 1): 7.79, ("perimeter", 2): 8.72, ("perimeter", 4): 10.19,
    ("perimeter", 8): 12.50, ("perimeter", 16): 16.00,
    ("voronoi", 1): 6.74, ("voronoi", 2): 11.76, ("voronoi", 4): 15.48,
    ("voronoi", 8): 10.69, ("voronoi", 16): 15.38,
}


class BenchmarkRow:
    """One (benchmark, processor-count) measurement.  ``rcached_ns``
    is present only when the sweep ran the fourth (remote-cache)
    configuration."""

    def __init__(self, benchmark: str, processors: int,
                 sequential_ns: float, simple_ns: float,
                 optimized_ns: float,
                 rcached_ns: Optional[float] = None):
        self.benchmark = benchmark
        self.processors = processors
        self.sequential_ns = sequential_ns
        self.simple_ns = simple_ns
        self.optimized_ns = optimized_ns
        self.rcached_ns = rcached_ns

    @property
    def simple_speedup(self) -> float:
        return self.sequential_ns / self.simple_ns

    @property
    def optimized_speedup(self) -> float:
        return self.sequential_ns / self.optimized_ns

    @property
    def improvement_pct(self) -> float:
        return (self.simple_ns - self.optimized_ns) / self.simple_ns * 100.0

    @property
    def rcached_improvement_pct(self) -> Optional[float]:
        """% improvement of the cached configuration over *simple*
        (same baseline as :attr:`improvement_pct`, so the two columns
        compare directly)."""
        if self.rcached_ns is None:
            return None
        return (self.simple_ns - self.rcached_ns) / self.simple_ns * 100.0

    def __repr__(self) -> str:
        return (f"BenchmarkRow({self.benchmark}, p={self.processors}, "
                f"impr={self.improvement_pct:.2f}%)")


def _catalog_names(benchmarks: Optional[Sequence[str]]) -> Sequence[str]:
    return benchmarks if benchmarks is not None \
        else [spec.name for spec in catalog()]


def leg_job(benchmark: str, configuration: str, processors: int,
            small: bool = False,
            run: Optional[RunConfig] = None) -> JobSpec:
    """One :data:`~repro.harness.pipeline.CONFIGURATIONS` leg of one
    catalog benchmark as a plain ``run`` job -- the unit every
    measurement below is made of, and the leg's content address.
    ``run`` carries options the caller wants on every leg (``opt``
    reaches only the tuned ones); the configuration's pins win."""
    leg = CONFIGURATIONS[configuration]
    config = leg.run_config((run or RunConfig()).replace(nodes=processors))
    return JobSpec("run", benchmark=benchmark, small=small,
                   optimize=leg.optimize, config=leg.preset,
                   **dict(config.wire(), args=None, max_stmts=None))


def bundle_jobs(processor_counts: Sequence[int],
                benchmarks: Optional[Sequence[str]] = None,
                small: bool = False, rcache: bool = False,
                run: Optional[RunConfig] = None
                ) -> Dict[Tuple[str, int, str], JobSpec]:
    """The paper's bundle -- its three configurations, four with
    ``rcache`` -- at every (benchmark, processors) pair, as
    :func:`leg_job` legs under ``(benchmark, processors,
    configuration)``.  ``sequential`` pins its node count, so a
    benchmark's legs of that name share one content address however
    many counts are swept."""
    return {(name, processors, configuration): leg_job(
                name, configuration, processors, small, run)
            for name in _catalog_names(benchmarks)
            for processors in processor_counts
            for configuration, leg in CONFIGURATIONS.items()
            if rcache or not leg.cached}


def run_legs(jobs: Dict[object, JobSpec],
             run_batch) -> Dict[object, JobResult]:
    """Run ``jobs`` through ``run_batch`` -- ``WorkerPool.run_batch`` or
    ``ServiceClient.batch``: specs in, results out, in order -- and
    return each one's result under its key.  Jobs with one content
    address are one leg: it runs once and answers every key."""
    addresses = {key: job.canonical_key() for key, job in jobs.items()}
    distinct = {addresses[key]: job for key, job in jobs.items()}
    results = dict(zip(distinct, run_batch(list(distinct.values()))))
    return {key: results[address] for key, address in addresses.items()}


def _leg_runs(jobs: Dict[object, JobSpec],
              pool: Optional[WorkerPool]) -> Dict[object, dict]:
    """Each job's ``payload["run"]``, run through ``pool`` -- the
    caller's, or a private inline memory-only one.  A failed job
    raises."""
    if pool is None:
        with WorkerPool(0, cache_dir=None) as private:
            return _leg_runs(jobs, private)
    return {key: result.raise_if_failed().payload["run"]
            for key, result in run_legs(jobs, pool.run_batch).items()}


def bundles_of(runs: Dict[Tuple[str, int, str], dict]
               ) -> Dict[Tuple[str, int], Dict[str, dict]]:
    """:func:`bundle_jobs` legs' run payloads as ``{(benchmark,
    processors): {configuration: run payload}}``.  The legs that meet
    at a pair must agree on the program's value (checked)."""
    bundles: Dict[Tuple[str, int], Dict[str, dict]] = {}
    for (name, processors, configuration), run in runs.items():
        bundles.setdefault((name, processors), {})[configuration] = run
    for bundle in bundles.values():
        check_same_value({configuration: run["value"]
                          for configuration, run in bundle.items()})
    return bundles


def measure_bundles(processor_counts: Sequence[int],
                    benchmarks: Optional[Sequence[str]] = None,
                    small: bool = False, rcache: bool = False,
                    pool: Optional[WorkerPool] = None
                    ) -> Dict[Tuple[str, int], Dict[str, dict]]:
    """Every :func:`bundle_jobs` leg run through ``pool``, as
    :func:`bundles_of` groups them."""
    return bundles_of(_leg_runs(
        bundle_jobs(processor_counts, benchmarks, small, rcache), pool))


def measure_table3(
    processor_counts: Sequence[int] = (1, 2, 4, 8, 16),
    benchmarks: Optional[Sequence[str]] = None,
    small: bool = False,
    rcache: bool = False,
    pool: Optional[WorkerPool] = None,
) -> List[BenchmarkRow]:
    bundles = measure_bundles(processor_counts, benchmarks, small,
                              rcache, pool)
    return [BenchmarkRow(
        name, processors, bundle["sequential"]["time_ns"],
        bundle["simple"]["time_ns"], bundle["optimized"]["time_ns"],
        bundle["rcached"]["time_ns"] if rcache else None)
        for (name, processors), bundle in bundles.items()]


def format_table3(rows: List[BenchmarkRow]) -> str:
    rcached = any(row.rcached_ns is not None for row in rows)
    header = (f"{'benchmark':<11}{'procs':>6}{'seq(ms)':>10}{'simple':>10}"
              f"{'optim':>10}")
    if rcached:
        header += f"{'rcache':>10}"
    header += f"{'spdS':>7}{'spdO':>7}{'impr%':>8}"
    if rcached:
        header += f"{'cach%':>8}"
    header += f"{'paper%':>8}"
    lines = [
        "Table III: performance improvement results (simulated time)",
        header,
    ]
    for row in rows:
        paper = PAPER_TABLE3_IMPROVEMENT.get(
            (row.benchmark, row.processors))
        paper_text = f"{paper:>8.2f}" if paper is not None else f"{'-':>8}"
        line = (
            f"{row.benchmark:<11}{row.processors:>6}"
            f"{row.sequential_ns / 1e6:>10.3f}"
            f"{row.simple_ns / 1e6:>10.3f}"
            f"{row.optimized_ns / 1e6:>10.3f}")
        if rcached:
            line += (f"{row.rcached_ns / 1e6:>10.3f}"
                     if row.rcached_ns is not None else f"{'-':>10}")
        line += (f"{row.simple_speedup:>7.2f}{row.optimized_speedup:>7.2f}"
                 f"{row.improvement_pct:>8.2f}")
        if rcached:
            pct = row.rcached_improvement_pct
            line += f"{pct:>8.2f}" if pct is not None else f"{'-':>8}"
        line += paper_text
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 10: dynamic communication counts
# ---------------------------------------------------------------------------


class Fig10Bar:
    """One benchmark's simple/optimized communication breakdown,
    normalized so the simple version totals 100."""

    def __init__(self, benchmark: str,
                 simple_counts: Dict[str, int],
                 optimized_counts: Dict[str, int]):
        self.benchmark = benchmark
        self.simple_counts = dict(simple_counts)
        self.optimized_counts = dict(optimized_counts)

    @property
    def simple_total(self) -> int:
        return sum(self.simple_counts.values())

    @property
    def optimized_total(self) -> int:
        return sum(self.optimized_counts.values())

    def normalized(self, counts: Dict[str, int]) -> Dict[str, float]:
        total = self.simple_total or 1
        return {key: 100.0 * value / total
                for key, value in counts.items()}

    @property
    def optimized_normalized_total(self) -> float:
        return 100.0 * self.optimized_total / (self.simple_total or 1)

    def __repr__(self) -> str:
        return (f"Fig10Bar({self.benchmark}: 100 -> "
                f"{self.optimized_normalized_total:.1f})")


def measure_fig10(num_nodes: int = 16,
                  benchmarks: Optional[Sequence[str]] = None,
                  small: bool = False,
                  pool: Optional[WorkerPool] = None) -> List[Fig10Bar]:
    bundles = measure_bundles([num_nodes], benchmarks, small, pool=pool)
    return [Fig10Bar(
        name,
        MachineStats.from_snapshot(
            bundle["simple"]["stats"]).comm_breakdown(),
        MachineStats.from_snapshot(
            bundle["optimized"]["stats"]).comm_breakdown())
        for (name, _), bundle in bundles.items()]


# ---------------------------------------------------------------------------
# What ``python -m repro batch`` sweeps
# ---------------------------------------------------------------------------

#: ``batch --kind``'s two names for a sweep of the paper's bundle ->
#: with the cached leg? (:func:`bundle_jobs`' ``rcache``).
BUNDLE_SWEEPS = {"three-way": False, "four-way": True}


def sweep_jobs(processor_counts: Sequence[int],
               benchmarks: Optional[Sequence[str]] = None,
               small: bool = False, kind: str = "run",
               run: Optional[RunConfig] = None) -> List[JobSpec]:
    """The benchmark-by-processors cross product as plain ``kind``
    jobs (``batch --kind compile | run``).  ``run`` carries the run
    options every job shares (engine, faults, cache geometry, ...);
    the sweep sets the node count, the benchmark catalog the
    arguments and statement budget."""
    options = dict((run or RunConfig()).wire(), args=None, max_stmts=None)
    return [JobSpec(kind, benchmark=name, small=small,
                    **dict(options, nodes=processors))
            for name in _catalog_names(benchmarks)
            for processors in processor_counts]


# ---------------------------------------------------------------------------
# Utilization metrics (observability layer; not a paper figure)
# ---------------------------------------------------------------------------


def measure_utilization(num_nodes: int = 4,
                        benchmarks: Optional[Sequence[str]] = None,
                        small: bool = False, rcache: bool = False,
                        pool: Optional[WorkerPool] = None
                        ) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Machine-readable metrics of each benchmark's three (with
    ``rcache``, four) configurations: per-configuration run time,
    per-node EU/SU utilization, and the stats snapshot (``report
    --metrics-json`` writes it)."""
    bundles = measure_bundles([num_nodes], benchmarks, small, rcache,
                              pool)
    return {
        name: {
            configuration: {
                "time_ns": run["time_ns"],
                "nodes": run["num_nodes"],
                "utilization": run["utilization"],
                "stats": run["stats"],
            }
            for configuration, run in bundle.items()
        }
        for (name, _), bundle in bundles.items()
    }


def format_utilization(name: str,
                       metrics: Dict[str, Dict[str, object]]) -> str:
    lines = [f"Utilization: {name} "
             f"(EU/SU busy fraction per node)"]
    for config in CONFIGURATIONS:
        if config not in metrics:
            continue
        entry = metrics[config]
        util = entry["utilization"]
        eu = " ".join(f"{u:5.2f}" for u in util["eu_utilization"])
        su = " ".join(f"{u:5.2f}" for u in util["su_utilization"])
        lines.append(f"  {config:<11}{entry['time_ns'] / 1e6:>9.3f}ms"
                     f"  EU [{eu}]  SU [{su}]")
    return "\n".join(lines)


def format_fig10(bars: List[Fig10Bar]) -> str:
    lines = [
        "Figure 10: dynamic communication counts "
        "(simple normalized to 100)",
        f"{'benchmark':<11}{'total ops':>10} |"
        f"{'read':>7}{'write':>7}{'blk':>6}  ->"
        f"{'read':>7}{'write':>7}{'blk':>6}{'total':>8}",
    ]
    for bar in bars:
        simple = bar.normalized(bar.simple_counts)
        optimized = bar.normalized(bar.optimized_counts)
        lines.append(
            f"{bar.benchmark:<11}{bar.simple_total:>10} |"
            f"{simple['read_data']:>7.1f}{simple['write_data']:>7.1f}"
            f"{simple['blkmov']:>6.1f}  ->"
            f"{optimized['read_data']:>7.1f}{optimized['write_data']:>7.1f}"
            f"{optimized['blkmov']:>6.1f}"
            f"{bar.optimized_normalized_total:>8.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# OptConfig sweep: legacy vs probabilistic heuristics
# ---------------------------------------------------------------------------


class OptSweepRow:
    """One benchmark's optimized leg compiled twice -- once under the
    ``legacy`` :class:`~repro.comm.optconfig.OptConfig` preset and once
    under ``probabilistic`` defaults -- and run on the same machine
    geometry.  ``values_equal`` is the correctness gate: the heuristics
    may only change *where* communication happens, never the answer."""

    def __init__(self, benchmark: str, processors: int,
                 legacy_remote_ops: int, prob_remote_ops: int,
                 legacy_time_ns: float, prob_time_ns: float,
                 values_equal: bool):
        self.benchmark = benchmark
        self.processors = processors
        self.legacy_remote_ops = legacy_remote_ops
        self.prob_remote_ops = prob_remote_ops
        self.legacy_time_ns = legacy_time_ns
        self.prob_time_ns = prob_time_ns
        self.values_equal = values_equal

    @property
    def delta_ops(self) -> int:
        return self.prob_remote_ops - self.legacy_remote_ops

    @property
    def delta_pct(self) -> float:
        base = self.legacy_remote_ops or 1
        return 100.0 * self.delta_ops / base

    def __repr__(self) -> str:
        return (f"OptSweepRow({self.benchmark}, p={self.processors}, "
                f"{self.legacy_remote_ops} -> {self.prob_remote_ops})")


def measure_opt_sweep(num_nodes: int = 4,
                      benchmarks: Optional[Sequence[str]] = None,
                      small: bool = False,
                      pool: Optional[WorkerPool] = None
                      ) -> List[OptSweepRow]:
    """Run every benchmark's optimized leg under both OptConfig
    presets and compare dynamic remote-operation counts.  The legacy
    leg is Table III's ``optimized`` leg, address included."""
    names = _catalog_names(benchmarks)
    presets = {preset: RunConfig(opt=preset) for preset in OPT_PRESETS}
    runs = _leg_runs({(name, preset): leg_job(name, "optimized", num_nodes,
                                              small, run)
                      for name in names
                      for preset, run in presets.items()}, pool)
    rows: List[OptSweepRow] = []
    for name in names:
        legacy, prob = runs[name, "legacy"], runs[name, "probabilistic"]
        rows.append(OptSweepRow(
            name, num_nodes,
            MachineStats.from_snapshot(legacy["stats"]).total_remote_ops,
            MachineStats.from_snapshot(prob["stats"]).total_remote_ops,
            legacy["time_ns"], prob["time_ns"],
            legacy["value"] == prob["value"]))
    return rows


def format_opt_sweep(rows: List[OptSweepRow]) -> str:
    lines = [
        "OptConfig sweep: dynamic remote operations, legacy vs "
        "probabilistic presets",
        f"{'benchmark':<11}{'procs':>6}{'legacy':>10}{'prob':>10}"
        f"{'delta':>8}{'delta%':>9}{'value':>7}",
    ]
    reduced = 0
    for row in rows:
        if row.delta_ops < 0:
            reduced += 1
        lines.append(
            f"{row.benchmark:<11}{row.processors:>6}"
            f"{row.legacy_remote_ops:>10}{row.prob_remote_ops:>10}"
            f"{row.delta_ops:>+8}{row.delta_pct:>+9.2f}"
            f"{'ok' if row.values_equal else 'DIFF':>7}")
    lines.append(f"(remote ops strictly reduced on {reduced}/{len(rows)} "
                 "benchmarks; 'value' checks the probabilistic run "
                 "returned the legacy answer)")
    return "\n".join(lines)
