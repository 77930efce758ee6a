"""Per-layer metrics: every layer under ``src/repro/`` timed from
outside, through its public entry points, in the traced run.

The same probes run whatever the workload, on fixed inputs (the ten
Olden programs, ten generated ones, a trio of Olden at catalog size for
the expensive engine runs), so a traced run of any workload reports
every metric in ``METRICS``.  Times are per-input medians, averaged
geometrically over inputs, and host-speed-normalised like the
end-to-end ones (``bench/host.py``).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import (CommConfig, OptConfig, RunConfig, compile_source,
                   execute, optimize_program, run_three_ways)
from repro.analysis.connection import ConnectionInfo
from repro.analysis.locality import analyze_locality
from repro.analysis.nilness import analyze_nilness
from repro.analysis.points_to import analyze_points_to
from repro.analysis.rw_sets import EffectsAnalysis
from repro.backend.threaded import render_threaded_program
from repro.comm.optconfig import resolve_opt
from repro.comm.placement import analyze_placement
from repro.earth.faults import PROFILES
from repro.earth.interpreter import ENGINES
from repro.earth.rcache import DEFAULT_CAPACITY, DEFAULT_LINE_WORDS
from repro.fleet.loadgen import (FleetProcess, free_port, launch_gateway,
                                 launch_store)
from repro.fleet.store import RemoteStore
from repro.frontend.goto_elim import eliminate_gotos
from repro.frontend.inline import inline_functions
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_program
from repro.frontend.simplify import simplify_program
from repro.frontend.typecheck import check_program
from repro.harness.pipeline import simple_baseline_config
from repro.obs import TraceMetrics, export_chrome_trace
from repro.olden.loader import catalog
from repro.service import (ArtifactCache, JobSpec, WorkerPool, cache_key,
                           compile_payload, execute_job, run_payload,
                           wait_for_server)
from repro.shard import run_sharded
from repro.shard.scenarios import SCENARIOS, compile_scenario, config_for
from repro.simple.printer import print_program
from repro.simple.validate import validate_program

from bench import stats, workloads
from bench.host import HostSpeed
from bench.spans import Spans

#: ``(name, unit, better)``; ``BENCHMARK.json``'s ``per_layer`` mirrors
#: this list (``bench/selftest.py`` checks that it does).
METRICS: List[Tuple[str, str, str]] = [
    ("frontend.tokenize_ms", "ms", "lower"),
    ("frontend.tokens", "count", "lower"),
    ("frontend.parse_ms", "ms", "lower"),
    ("frontend.goto_elim_ms", "ms", "lower"),
    ("frontend.inline_ms", "ms", "lower"),
    ("frontend.typecheck_ms", "ms", "lower"),
    ("frontend.simplify_ms", "ms", "lower"),
    ("simple.validate_ms", "ms", "lower"),
    ("simple.print_ms", "ms", "lower"),
    ("simple.basic_stmts", "count", "lower"),
    ("simple.basic_stmts_opt", "count", "lower"),
    ("analysis.points_to_ms", "ms", "lower"),
    ("analysis.rw_sets_ms", "ms", "lower"),
    ("analysis.locality_ms", "ms", "lower"),
    ("analysis.nilness_ms", "ms", "lower"),
    ("comm.optimize_ms", "ms", "lower"),
    ("comm.optimize_prob_ms", "ms", "lower"),
    ("comm.placement_ms", "ms", "lower"),
    ("comm.tuples_generated", "count", "lower"),
    ("comm.tuples_killed", "count", "lower"),
    ("comm.kill_ratio", "ratio", "lower"),
    ("comm.reads_forwarded", "count", "higher"),
    ("comm.pipelined_reads", "count", "higher"),
    ("comm.blkmov_merges", "count", "higher"),
    ("comm.sim_speedup_gmean", "ratio", "higher"),
    ("comm.remote_ops_ratio_gmean", "ratio", "lower"),
    ("backend.threaded_ms", "ms", "lower"),
    ("harness.compile_ms", "ms", "lower"),
    ("harness.execute_ms", "ms", "lower"),
    ("harness.three_way_ms", "ms", "lower"),
    ("earth.run_ms.ast", "ms", "lower"),
    ("earth.run_ms.closure", "ms", "lower"),
    ("earth.run_ms.codegen", "ms", "lower"),
    ("earth.first_run_ms.closure", "ms", "lower"),
    ("earth.first_run_ms.codegen", "ms", "lower"),
    ("earth.host_us_per_stmt", "us", "lower"),
    ("earth.stmts_executed", "count", "lower"),
    ("earth.remote_ops", "count", "lower"),
    ("earth.context_switches", "count", "lower"),
    ("earth.simple_run_ms", "ms", "lower"),
    ("earth.rcache_run_ms", "ms", "lower"),
    ("earth.rcache_hit_ratio", "ratio", "higher"),
    ("earth.faults_run_ms", "ms", "lower"),
    ("earth.op_retries", "count", "lower"),
    ("earth.nodes512_run_ms", "ms", "lower"),
    ("obs.traced_run_ratio", "ratio", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.metrics_ms", "ms", "lower"),
    ("obs.chrome_export_ms", "ms", "lower"),
    ("service.spec_roundtrip_us", "us", "lower"),
    ("service.cache_key_us", "us", "lower"),
    ("service.cache_get_mem_us", "us", "lower"),
    ("service.cache_get_disk_us", "us", "lower"),
    ("service.cache_put_us", "us", "lower"),
    ("service.execute_job_miss_ms", "ms", "lower"),
    ("service.execute_job_hit_ms", "ms", "lower"),
    ("service.pool_echo_ms", "ms", "lower"),
    ("service.tcp_echo_ms", "ms", "lower"),
    ("service.tcp_hit_ms", "ms", "lower"),
    ("service.payload_bytes", "B", "lower"),
    ("fleet.http_healthz_ms", "ms", "lower"),
    ("fleet.http_echo_ms", "ms", "lower"),
    ("fleet.http_hit_ms", "ms", "lower"),
    ("fleet.store_put_ms", "ms", "lower"),
    ("fleet.store_get_ms", "ms", "lower"),
    ("fleet.cache_hit_ratio", "ratio", "higher"),
    ("shard.k1_ms", "ms", "lower"),
    ("shard.k2_ms", "ms", "lower"),
    ("shard.k2_over_single", "ratio", "lower"),
    ("workload.generate_ms", "ms", "lower"),
]

#: Olden programs run at catalog size under every engine.
TRIO = ("power", "em3d", "mst")
FAULT_PROFILE = "lossy"
#: Generated programs nothing else in a run has compiled or run.
UNSEEN_SALT = 1_000_003


class _Timer:
    """Times calls, keeps the samples by metric and input, and opens a
    span for each so they show in the trace file."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.speed = HostSpeed()
        self.samples: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}

    def time(self, metric: str, input_id: str, fn: Callable, *args,
             per: int = 1, **kwargs):
        """Call ``fn`` once; file wall-clock / ``per`` (host-speed
        normalised) under ``metric`` and ``input_id``."""
        self.speed.tick()
        layer = metric.split(".", 1)[0]
        with self.spans.span(metric, layer):
            begin = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
        scale = 1e6 if metric.endswith("_us") else 1e3
        self.samples.setdefault(metric, {}).setdefault(
            input_id, []).append(((begin + end) / 2,
                                  (end - begin) * scale / per))
        return result

    def median_of(self, metric: str, input_id: str) -> float:
        # Normalised here, not when taken: by now the samples on both
        # sides of each call exist.
        return statistics.median(
            value * self.speed.factor(when)
            for when, value in self.samples[metric][input_id])

    def value(self, metric: str) -> Optional[float]:
        """Geometric mean over inputs of each input's median."""
        by_input = self.samples.get(metric)
        if not by_input:
            return None
        return stats.gmean([self.median_of(metric, input_id)
                            for input_id in by_input])


def _untimed(metric, input_id, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _basic_stmts(simple) -> int:
    return sum(len(list(function.body.basic_stmts()))
               for function in simple.functions.values())


def _lower(item, time_call=_untimed):
    """The frontend, phase by phase (what ``compile_source`` does before
    it optimizes), each phase through ``time_call``."""
    name = item.name
    program = time_call("frontend.parse_ms", name, parse_program,
                        item.source, item.filename)
    time_call("frontend.goto_elim_ms", name, eliminate_gotos, program)
    if item.inline:
        only = item.inline if isinstance(item.inline, set) else None
        time_call("frontend.inline_ms", name, inline_functions, program,
                  only=only)
    symbols = time_call("frontend.typecheck_ms", name, check_program,
                        program)
    simple = time_call("frontend.simplify_ms", name, simplify_program,
                       program, symbols)
    time_call("simple.validate_ms", name, validate_program, simple)
    return simple


def _pass_total(report, counter: str) -> int:
    return sum(profile.counters.get(counter, 0)
               for profile in report.passes)


# ---------------------------------------------------------------------------
# Compiler layers
# ---------------------------------------------------------------------------


def _compiler(timer: _Timer, inputs, reps: int, values: dict) -> dict:
    """frontend, simple, analysis, comm, backend, harness.compile_ms.
    Returns each Olden input's compiled (optimized) program."""
    counts = dict.fromkeys(
        ("frontend.tokens", "simple.basic_stmts", "simple.basic_stmts_opt",
         "comm.tuples_generated", "comm.tuples_killed",
         "comm.reads_forwarded", "comm.pipelined_reads",
         "comm.blkmov_merges"), 0)
    probabilistic = CommConfig(opt=resolve_opt("probabilistic"))
    compiled = {}
    for rep in range(reps):
        for item in inputs:
            name = item.name
            tokens = timer.time("frontend.tokenize_ms", name, tokenize,
                                item.source, item.filename)
            simple = _lower(item, timer.time)
            # Read-only analyses first; locality rewrites accesses.
            pts = timer.time("analysis.points_to_ms", name,
                             analyze_points_to, simple)
            effects = timer.time("analysis.rw_sets_ms", name,
                                 EffectsAnalysis, simple, pts)
            conn = ConnectionInfo(simple, pts, effects)
            functions = list(simple.functions.values())
            timer.time("analysis.nilness_ms", name,
                       lambda: [analyze_nilness(f) for f in functions])
            timer.time("comm.placement_ms", name,
                       lambda: [analyze_placement(f, conn, OptConfig())
                                for f in functions])
            before = _basic_stmts(simple)
            timer.time("analysis.locality_ms", name, analyze_locality,
                       simple)
            # The optimizer works in place: a fresh program each.
            fresh = _lower(item)
            report = timer.time("comm.optimize_ms", name,
                                optimize_program, fresh)
            timer.time("comm.optimize_prob_ms", name, optimize_program,
                       _lower(item), probabilistic)
            whole = timer.time("harness.compile_ms", name, compile_source,
                               item.source, item.filename, optimize=True,
                               inline=item.inline)
            timer.time("simple.print_ms", name, print_program,
                       whole.simple)
            timer.time("backend.threaded_ms", name,
                       render_threaded_program, whole.simple)
            compiled[name] = whole
            if rep == 0:
                counts["frontend.tokens"] += len(tokens)
                counts["simple.basic_stmts"] += before
                counts["simple.basic_stmts_opt"] += _basic_stmts(fresh)
                for counter in ("tuples_generated", "tuples_killed",
                                "reads_forwarded", "pipelined_reads",
                                "blkmov_merges"):
                    counts[f"comm.{counter}"] += _pass_total(report,
                                                             counter)
    values.update(counts)
    values["comm.kill_ratio"] = (
        counts["comm.tuples_killed"] / counts["comm.tuples_generated"]
        if counts["comm.tuples_generated"] else 0.0)
    return compiled


# ---------------------------------------------------------------------------
# Simulator, tracer, harness
# ---------------------------------------------------------------------------


def _catalog_config(spec, **changes) -> RunConfig:
    return RunConfig(nodes=4, args=spec.default_args,
                     max_stmts=spec.max_stmts, **changes)


def _earth(timer: _Timer, inputs, compiled, reps: int, seed: int,
           values: dict, notes: dict) -> None:
    specs = {spec.name: spec for spec in catalog()}
    trio = [specs[name] for name in TRIO]
    default_engine = RunConfig().engine

    # -- the engine ladder, repeat runs of programs already seen --------
    results = {}
    for engine in ("ast", "closure", "codegen"):
        metric = f"earth.run_ms.{engine}"
        if engine not in ENGINES:
            values[metric] = 0.0
            notes[metric] = f"engine {engine!r} is not in ENGINES"
            continue
        for spec in trio:
            # Seen once at small size: engine-level caches are warm.
            execute(compiled[spec.name], config=RunConfig(
                nodes=4, args=spec.small_args, engine=engine))
        spent = time.perf_counter()
        for rep in range(reps):
            for spec in trio:
                results[engine, spec.name] = timer.time(
                    metric, spec.name, execute, compiled[spec.name],
                    config=_catalog_config(spec, engine=engine))
            if time.perf_counter() - spent > 1.5:
                break   # a slow tier gets one repetition
    present = [e for e in ("ast", "closure", "codegen") if e in ENGINES]
    fastest = min(present, key=lambda e: timer.value(f"earth.run_ms.{e}"))

    # -- the default engine's counts ------------------------------------
    metric = f"earth.run_ms.{default_engine}"
    wall_us = stmts = remote = switches = 0
    for spec in trio:
        result = results[default_engine, spec.name]
        wall_us += timer.median_of(metric, spec.name) * 1e3
        stmts += result.stats.basic_stmts_executed
        remote += result.stats.total_remote_ops
        switches += result.stats.context_switches
    values["earth.host_us_per_stmt"] = wall_us / stmts
    values["earth.stmts_executed"] = stmts
    values["earth.remote_ops"] = remote
    values["earth.context_switches"] = switches

    # -- the paper's two results: all ten, simple against optimized -----
    # Simulated time does not depend on the engine, so the fastest one
    # present runs these.
    speedups, ratios = [], []
    for spec in catalog():
        optimized = results.get((fastest, spec.name)) or execute(
            compiled[spec.name],
            config=_catalog_config(spec, engine=fastest))
        baseline = compile_source(
            spec.source(), spec.filename, optimize=True,
            config=simple_baseline_config(), inline=spec.inline)
        simple = timer.time("earth.simple_run_ms", spec.name, execute,
                            baseline,
                            config=_catalog_config(spec, engine=fastest))
        speedups.append(simple.time_ns / optimized.time_ns)
        ratios.append(optimized.stats.total_remote_ops
                      / simple.stats.total_remote_ops)
    values["comm.sim_speedup_gmean"] = stats.gmean(speedups)
    values["comm.remote_ops_ratio_gmean"] = stats.gmean(ratios)
    notes["earth.simple_run_ms"] = f"engine {fastest!r} (fastest present)"

    # -- remote-data cache, faults, 512 nodes ---------------------------
    hits = misses = retries = 0
    for spec in trio:
        cached = timer.time(
            "earth.rcache_run_ms", spec.name, execute, compiled[spec.name],
            config=_catalog_config(spec, rcache_capacity=DEFAULT_CAPACITY,
                                   rcache_line_words=DEFAULT_LINE_WORDS))
        hits += cached.stats.rcache_hits
        misses += cached.stats.rcache_misses
        faulty = timer.time(
            "earth.faults_run_ms", spec.name, execute, compiled[spec.name],
            config=_catalog_config(
                spec, faults=dict(PROFILES[FAULT_PROFILE], seed=1)))
        retries += faulty.stats.op_retries
    values["earth.rcache_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    values["earth.op_retries"] = retries

    # -- first runs of never-seen programs: engine build included -------
    unseen = workloads.generated_programs(seed + UNSEEN_SALT, 9)
    fresh = [(p, compile_source(p.source, p.filename, optimize=True))
             for p in unseen]
    for engine in ("closure", "codegen"):
        metric = f"earth.first_run_ms.{engine}"
        if engine not in ENGINES:
            values[metric] = 0.0
            notes[metric] = f"engine {engine!r} is not in ENGINES"
            continue
        for program, ready in fresh:
            timer.time(metric, program.name, execute, ready,
                       config=RunConfig(nodes=4, args=program.args,
                                        engine=engine))

    # -- harness: small-size runs, the ``report --small`` path ----------
    for item in inputs:
        timer.time("harness.execute_ms", item.name, execute,
                   compiled[item.name],
                   config=RunConfig(nodes=4, args=item.check_args,
                                    max_stmts=item.max_stmts))
    for spec in trio:
        timer.time("harness.three_way_ms", spec.name, run_three_ways,
                   spec.source(), spec.filename, inline=spec.inline,
                   config=RunConfig(nodes=4, args=spec.small_args,
                                    max_stmts=spec.max_stmts))

    # -- obs: the product's tracer, at small size ------------------------
    events = 0
    ratios = []
    for spec in trio:
        small = RunConfig(nodes=4, args=spec.small_args,
                          max_stmts=spec.max_stmts)
        for _ in range(3):      # cheap runs; one each is too noisy
            timer.time("obs.untraced_small_ms", spec.name, execute,
                       compiled[spec.name], config=small)
            traced = timer.time("obs.traced_small_ms", spec.name, execute,
                                compiled[spec.name],
                                config=small.replace(trace=True))
        ratios.append(timer.median_of("obs.traced_small_ms", spec.name)
                      / timer.median_of("obs.untraced_small_ms",
                                        spec.name))
        events += len(traced.tracer.events)
        timer.time("obs.metrics_ms", spec.name,
                   lambda: TraceMetrics(traced.tracer,
                                        traced.num_nodes).utilization())
        timer.time("obs.chrome_export_ms", spec.name, export_chrome_trace,
                   traced.tracer, io.StringIO(), traced.num_nodes)
    values["obs.traced_run_ratio"] = stats.gmean(ratios)
    values["obs.events"] = events


def _shard(timer: _Timer, reps: int, values: dict) -> None:
    scenario = SCENARIOS[workloads.SHARD_SCENARIO]
    compiled = compile_scenario(scenario)
    for rep in range(3 * reps // 2):
        timer.time("earth.nodes512_run_ms", scenario.name, execute,
                   compiled, config=config_for(scenario))
    for rep in range(reps):
        # K=1 goes through the shard machinery with nothing to overlap.
        timer.time("shard.k1_ms", scenario.name, run_sharded,
                   compiled.simple, config_for(scenario, shards=1))
        timer.time("shard.k2_ms", scenario.name, execute, compiled,
                   config=config_for(scenario, shards=2))
    values["shard.k2_over_single"] = (
        timer.value("shard.k2_ms") / timer.value("earth.nodes512_run_ms"))


# ---------------------------------------------------------------------------
# Service and fleet
# ---------------------------------------------------------------------------


def _echo(value: int) -> dict:
    return {"kind": "selftest",
            "selftest": {"behavior": "echo", "value": value}}


def _service(timer: _Timer, seed: int, scratch: str, count: int,
             values: dict) -> dict:
    """In-process service probes; returns one run payload."""
    unseen = workloads.generated_programs(seed + 2 * UNSEEN_SALT, 9)
    specs = [JobSpec("run", source=p.source, filename=p.filename, nodes=4,
                     args=list(p.args)) for p in unseen]
    wire = specs[0].to_dict()
    timer.time("service.spec_roundtrip_us", "job", lambda: [
        JobSpec.from_dict(wire).to_dict() for _ in range(count)],
        per=count)
    timer.time("service.cache_key_us", "job", lambda: [
        specs[0].canonical_key() for _ in range(count)], per=count)

    cache = ArtifactCache(os.path.join(scratch, "jobs"))
    payloads = []
    for program, spec in zip(unseen, specs):
        result = timer.time("service.execute_job_miss_ms", program.name,
                            execute_job, spec, cache)
        if not result.ok or result.cache != "miss":
            raise RuntimeError(f"probe job {program.name} did not miss: "
                               f"{result.error}")
        payloads.append(result.payload)
    for program, spec in zip(unseen, specs):
        result = timer.time("service.execute_job_hit_ms", program.name,
                            execute_job, spec, cache)
        if result.cache != "hit":
            raise RuntimeError(f"probe job {program.name} did not hit")
    values["service.payload_bytes"] = statistics.mean(
        len(json.dumps(payload)) for payload in payloads)

    payload = payloads[0]
    keys = [cache_key({"bench-probe": i}) for i in range(count)]
    store = ArtifactCache(os.path.join(scratch, "probe"))
    timer.time("service.cache_put_us", "payload", lambda: [
        store.put(key, payload) for key in keys], per=count)
    timer.time("service.cache_get_mem_us", "payload", lambda: [
        store.get(key) for key in keys], per=count)
    disk_only = ArtifactCache(os.path.join(scratch, "probe"),
                              memory_entries=0)
    timer.time("service.cache_get_disk_us", "payload", lambda: [
        disk_only.get(key) for key in keys], per=count)

    with WorkerPool(workers=2, cache_dir=None) as pool:
        pool.run_job(JobSpec.from_dict(_echo(-1)))
        timer.time("service.pool_echo_ms", "echo", lambda: [
            pool.run_job(JobSpec.from_dict(_echo(i)))
            for i in range(count)], per=count)
    return specs[0].to_dict()


def _tcp(timer: _Timer, scratch: str, count: int, job: dict) -> None:
    """The newline-JSON wire: a ``serve`` subprocess."""
    port = free_port()
    server = FleetProcess(
        "serve", [sys.executable, "-m", "repro", "serve", "--port",
                  str(port), "--workers", "2", "--cache-dir",
                  os.path.join(scratch, "tcp")], "127.0.0.1", port)
    try:
        with wait_for_server(server.host, port, timeout=30.0) as client:
            client.submit(_echo(-1))
            timer.time("service.tcp_echo_ms", "echo", lambda: [
                client.submit(_echo(i)) for i in range(count)], per=count)
            if client.submit(job).cache != "miss":
                raise RuntimeError("TCP probe job did not miss")
            hits = timer.time("service.tcp_hit_ms", "job", lambda: [
                client.submit(job) for _ in range(count)], per=count)
            if any(result.cache != "hit" for result in hits):
                raise RuntimeError("TCP probe job did not hit")
            client.shutdown()
        server.proc.wait(timeout=10.0)
    finally:
        server.kill()


def _fleet(timer: _Timer, seed: int, scratch: str, count: int, job: dict,
           values: dict, hit_ratio: Optional[float]) -> str:
    """HTTP gateway and blob store subprocesses; returns the cold-job
    budget table."""
    gateway = launch_gateway(os.path.join(scratch, "http"), workers=2)
    try:
        client = workloads.Connection(gateway, timeout_s=60.0)
        try:
            timer.time("fleet.http_healthz_ms", "healthz", lambda: [
                client.request("GET", "/healthz") for _ in range(count)],
                per=count)
            client.post_job(_echo(-1))
            timer.time("fleet.http_echo_ms", "echo", lambda: [
                client.post_job(_echo(i)) for i in range(count)], per=count)
            client.post_job(job)
            before = workloads.cache_counters(gateway)
            timer.time("fleet.http_hit_ms", "job", lambda: [
                client.post_job(job) for _ in range(count)], per=count)
            after = workloads.cache_counters(gateway)
            probes = (after[0] - before[0]) + (after[1] - before[1])
            # A served workload reports its own timed section's ratio;
            # elsewhere, the hit probe's.
            values["fleet.cache_hit_ratio"] = hit_ratio \
                if hit_ratio is not None \
                else (after[0] - before[0]) / probes
            budget = _cold_budget(client, seed, scratch)
        finally:
            client.close()
    finally:
        gateway.shutdown()

    store = launch_store(os.path.join(scratch, "store"))
    try:
        remote = RemoteStore(store.url)
        payload = {"bench": list(range(256))}
        keys = [cache_key({"bench-store": i}) for i in range(count // 2)]
        timer.time("fleet.store_put_ms", "payload", lambda: [
            remote.put(key, payload) for key in keys], per=len(keys))
        found = timer.time("fleet.store_get_ms", "payload", lambda: [
            remote.get(key) for key in keys], per=len(keys))
        if any(item != payload for item in found):
            raise RuntimeError("blob store returned a different payload")
    finally:
        store.shutdown()
    return budget


def _cold_budget(client, seed: int, scratch: str) -> str:
    """Where a cold job's milliseconds go, HTTP send to response: the
    client's wall-clock, the worker's share from the ``JobResult``
    envelope, and the worker's steps replayed in this process.  Three
    cold jobs per column, the median of each row."""
    unseen = workloads.generated_programs(seed + 3 * UNSEEN_SALT, 27)
    meshes = [p for p in unseen if "mesh" in p.name][:3]
    for program in [p for p in unseen if "mesh" not in p.name][:3]:
        # The worker has compiled one program so far; let it warm up.
        client.post_job(workloads.generated_job(program).wire)
    specs = {spec.name: spec for spec in catalog()}

    def olden(name: str, variant: int) -> JobSpec:
        # A trailing comment makes the source new to the cache *and* to
        # the worker's compile memo, which a change of node count alone
        # would not.
        spec = specs[name]
        return JobSpec(
            "run", source=f"{spec.source()}\n// cold variant {variant}\n",
            filename=spec.filename, nodes=4, args=list(spec.default_args),
            inline=spec.inline if isinstance(spec.inline, bool)
            else sorted(spec.inline), max_stmts=spec.max_stmts)

    columns = [
        ("power", [olden("power", k) for k in range(3)]),
        ("em3d", [olden("em3d", k) for k in range(3)]),
        ("mesh", [JobSpec("run", source=p.source, filename=p.filename,
                          nodes=4, args=list(p.args)) for p in meshes])]
    rows = ["wire + admission + dispatch", "key + lookup (miss)",
            "frontend", "analysis + comm", "engine build + simulate",
            "payload", "cache put", "unattributed (worker)",
            "measured op"]
    cache = ArtifactCache(os.path.join(scratch, "budget"))

    def ms(fn, *args, **kwargs):
        begin = time.perf_counter()
        result = fn(*args, **kwargs)
        return (time.perf_counter() - begin) * 1e3, result

    def one(label: str, spec: JobSpec) -> List[float]:
        total, (status, body) = ms(client.post_job, spec.to_dict())
        result = body.get("result") or {}
        if status != 200 or result.get("cache") != "miss":
            raise RuntimeError(f"budget job {label} was not a cold miss")
        worker = float(result["wall_s"]) * 1e3
        # The same steps execute_job takes, one at a time.
        key_ms, key = ms(spec.canonical_key)
        lookup_ms, _ = ms(cache.get, key)
        resolved = spec.resolved()
        inline = resolved["inline"]
        item = workloads.CompileInput(
            label, resolved["source"], resolved["filename"],
            set(inline) if isinstance(inline, list) else inline,
            (), spec.max_stmts, False)
        front_ms, simple = ms(_lower, item)
        opt_ms, _ = ms(optimize_program, simple)
        compiled = compile_source(item.source, item.filename,
                                  optimize=True, inline=item.inline)
        run_ms, ran = ms(execute, compiled,
                         config=RunConfig.from_json(resolved["run"]))
        payload_ms, payload = ms(
            lambda: {"run": run_payload(ran),
                     "compile": compile_payload(compiled)})
        put_ms, _ = ms(cache.put, key, payload)
        parts = [key_ms + lookup_ms, front_ms, opt_ms, run_ms,
                 payload_ms, put_ms]
        return [total - worker] + parts + [worker - sum(parts), total]

    table = []
    for label, specs in columns:
        samples = [one(label, spec) for spec in specs]
        table.append([statistics.median(column)
                      for column in zip(*samples)])
    lines = ["   cold-job latency budget, ms from HTTP send to response "
             "(median of three cold jobs each):",
             "   " + f"{'layer':30}"
             + "".join(f"{label:>10}" for label, _ in columns)]
    for index, row in enumerate(rows):
        lines.append("   " + f"{row:30}" + "".join(
            f"{column[index]:>10.2f}" for column in table))
    shares = [abs(column[-2]) / column[-1] for column in table]
    lines.append("   " + f"{'unattributed share of op':30}"
                 + "".join(f"{share:>10.1%}" for share in shares)
                 + ("   (all within 10 %)" if max(shares) <= 0.10
                    else "   (over 10 %: this process replays the "
                         "worker's steps warmer than the worker ran them)"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def measure(seed: int, spans: Spans, out_dir: str, quick: bool,
            hit_ratio: Optional[float]) -> dict:
    """Run every probe; ``{"values", "notes", "budget"}``."""
    reps = 1 if quick else 2
    count = 20 if quick else 100
    timer = _Timer(spans)
    values: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    inputs = workloads.compile_inputs(seed)
    scratch = tempfile.mkdtemp(prefix="layers-", dir=out_dir)
    try:
        compiled = _compiler(timer, inputs, reps, values)
        _earth(timer, inputs, compiled, reps, seed, values, notes)
        _shard(timer, reps, values)
        timer.time("workload.generate_ms", "100 programs",
                   workloads.generated_programs, seed + 4 * UNSEEN_SALT,
                   100)
        job = _service(timer, seed, scratch, count, values)
        _tcp(timer, scratch, count, job)
        budget = _fleet(timer, seed, scratch, count, job, values,
                        hit_ratio)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, _unit, _better in METRICS:
        if name not in values:
            values[name] = timer.value(name)
    return {"values": {name: values[name] for name, _u, _b in METRICS},
            "notes": notes, "budget": budget}


def format_values(measured: dict) -> str:
    lines = ["   per-layer metrics:"]
    for name, unit, _better in METRICS:
        value = measured["values"].get(name)
        shown = "null" if value is None else f"{value:14.4f}"
        note = measured["notes"].get(name)
        lines.append(f"   {name:30} {shown} {unit:6}"
                     + (f"  ({note})" if note else ""))
    lines.append(measured["budget"])
    return "\n".join(lines)
