"""Command-line compiler driver and service front end.

    python -m repro FILE.ec [options]          compile/run one file
    python -m repro serve [options]            HTTP/JSON job gateway
    python -m repro submit [options]           send one job to a gateway
    python -m repro batch [options]            run a job sweep (pool/gateway)
    python -m repro fleet-store [options]      shared artifact blob store
    python -m repro genjobs [options]          seeded synthetic job stream

Compiles an EARTH-C file and, on request, prints its SIMPLE form, its
Threaded-C fiber form, the communication tuples, and/or runs it on the
simulated EARTH-MANNA machine.  The ``serve``/``submit``/``batch``
verbs front the :mod:`repro.service` subsystem: a content-addressed
compile cache behind a multi-process worker pool, served over HTTP by
:mod:`repro.service.http`.

Examples::

    python -m repro prog.ec --show simple
    python -m repro prog.ec -O --show simple,threaded
    python -m repro prog.ec -O --run --nodes 4 --args 100
    python -m repro prog.ec -O --run --nodes 4 --rcache-capacity 64
    python -m repro prog.ec -O --show tuples --function walk
    python -m repro prog.ec -O --show profile       # compile timings
    python -m repro prog.ec -O --run --nodes 4 --trace out.json
                       # Chrome trace-event JSON: open in
                       # chrome://tracing or https://ui.perfetto.dev
    python -m repro prog.ec -O --run --json         # machine-readable

    python -m repro fleet-store --port 7792 --cache-dir /tmp/store
    python -m repro serve --workers 4 --port 7781
    python -m repro submit --benchmark power --small --nodes 4 --json
    python -m repro batch --benchmarks power,tsp --nodes 1,2,4 --workers 4
    python -m repro genjobs --seed 7 --count 20 --output jobs.json
    python -m repro batch --jobs jobs.json --workers 4

Exit codes: 0 success, 1 generic error, 2 usage, 3 compile error,
4 simulator runtime error, 5 I/O error, 6 service error.  With
``--json``, failures print a one-line JSON error object
``{"ok": false, "error": {"type", "message", "code"}}`` on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.connection import analyze_connection
from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.comm.placement import analyze_placement
from repro.config import (
    ASSEMBLED_FIELDS,
    RUN_FLAGS,
    RunConfig,
    cli_run_options,
    int_list,
)
from repro.earth.interpreter import DEFAULT_ENGINE
from repro.errors import (
    EXIT_ERROR,
    EXIT_IO,
    EXIT_OK,
    ReproError,
    ServiceError,
    UsageError,
    error_body,
    exit_code_for,
)
from repro.harness.pipeline import compile_earthc, execute
from repro.obs import TraceMetrics, export_chrome_trace
from repro.simple import nodes as s
from repro.simple.printer import print_function

SERVICE_VERBS = ("serve", "submit", "batch", "fleet-store", "genjobs")


def _emit_error(exc: BaseException, json_mode: bool,
                code: int = None) -> int:
    """Report a failure and return its exit code.  Under ``--json`` the
    report is a one-line JSON object on stdout (scripts parse exactly
    one line either way); otherwise a human line on stderr."""
    if code is None:
        try:
            code = exit_code_for(exc)
        except TypeError:
            code = EXIT_ERROR
    if json_mode:
        print(json.dumps(error_body(type(exc).__name__, str(exc), code)))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _usage_error(message: str, json_mode: bool = False) -> int:
    return _emit_error(UsageError(message), json_mode)


def _add_run_flags(parser, *options, **defaults) -> None:
    """Attach the named :data:`~repro.config.RUN_FLAGS` rows to
    ``parser``.  A flag that sets a ``RunConfig`` field directly
    defaults to the field's default unless ``defaults`` names another
    for this verb (``nodes=4``: a submitted job's machine)."""
    field_defaults = RunConfig()
    for option in options:
        field, keywords = RUN_FLAGS[option]
        if field not in ASSEMBLED_FIELDS:
            keywords = dict(keywords, default=defaults.get(
                field, getattr(field_defaults, field)))
        parser.add_argument(option, **keywords)


def _add_opt_preset(parser) -> None:
    """The optimizer flag, a compile option (``CommConfig(opt=...)``)."""
    parser.add_argument(
        "--opt-preset", choices=OPT_PRESETS, default="legacy",
        help="optimizer heuristic preset (OptConfig): 'legacy' is the "
             "paper's blocking threshold of three (the default), "
             "'probabilistic' blocks two fields and blocks a group of "
             "uncertain accesses expected once in all")


# ---------------------------------------------------------------------------
# Legacy single-file driver
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EARTH-C compiler + EARTH-MANNA simulator "
                    "(reproduction of Zhu & Hendren, PLDI 1998)")
    parser.add_argument("file", help="EARTH-C source file")
    parser.add_argument("-O", "--optimize", action="store_true",
                        help="run the communication optimization")
    parser.add_argument("--inline", action="store_true",
                        help="inline small local functions first")
    parser.add_argument("--show", default="",
                        help="comma list of: simple, threaded, tuples, "
                             "stats, profile")
    parser.add_argument("--function", default=None,
                        help="restrict --show output to one function")
    parser.add_argument("--run", action="store_true",
                        help="execute main() on the simulator")
    parser.add_argument("--args", default="",
                        help="comma-separated integer arguments to main "
                             "(for the bundled Olden benchmarks, "
                             "defaults to the catalog problem size)")
    _add_run_flags(parser, "--nodes", "--shards", "--entry",
                   "--max-stmts", "--engine", "--rcache-capacity",
                   "--rcache-line", "--trace", "--trace-capacity",
                   "--faults", "--fault-drop", "--fault-jitter",
                   "--fault-profile")
    _add_opt_preset(parser)
    parser.add_argument("--dump-codegen", default=None, metavar="FUNC",
                        help="print the Python source the codegen "
                             "engine emits for FUNC and continue")
    parser.add_argument("--json", action="store_true",
                        help="with --run: print one JSON object (run "
                             "result, MachineStats.snapshot(), per-node "
                             "EU/SU utilization) instead of text; "
                             "errors become one-line JSON objects")
    return parser.parse_args(argv)


def _selected_functions(compiled, only):
    functions = compiled.simple.functions
    if only is None:
        return list(functions.values())
    if only not in functions:
        raise ReproError(f"no function named {only!r} "
                         f"(have: {', '.join(functions)})")
    return [functions[only]]


def _show_tuples(compiled, functions):
    conn = analyze_connection(compiled.simple)
    for function in functions:
        placement = analyze_placement(function, conn)
        print(f"== RemoteReads / RemoteWrites per statement: "
              f"{function.name}")
        for stmt in function.body.walk():
            if isinstance(stmt, s.SeqStmt):
                continue
            reads = placement.remote_reads(stmt.label)
            writes = placement.remote_writes(stmt.label)
            if len(reads) or len(writes):
                line = f"  S{stmt.label:<5}"
                if len(reads):
                    line += f" RR={reads}"
                if len(writes):
                    line += f" RW={writes}"
                print(line)
        print()


def main(argv=None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    try:
        if argv and argv[0] in SERVICE_VERBS:
            return _service_main(argv[0], argv[1:])
        return _compile_main(argv)
    except BrokenPipeError:
        # stdout's reader left (``| head -1``): stop quietly.  stdout
        # now points at os.devnull, so the interpreter's exit flush of
        # what is still buffered cannot raise again.  SIGPIPE keeps
        # Python's setting: serve and submit write to sockets.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO


def _compile_main(argv) -> int:
    args = _parse_args(argv)
    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as exc:
        return _emit_error(exc, args.json)

    shows = [part.strip() for part in args.show.split(",") if part.strip()]
    unknown = set(shows) - {"simple", "threaded", "tuples", "stats",
                            "profile"}
    if unknown:
        return _usage_error(f"unknown --show item(s): {sorted(unknown)}",
                            args.json)
    if (args.trace or args.json) and not args.run:
        return _usage_error("--trace/--json require --run", args.json)
    if args.faults is not None and not args.run:
        return _usage_error("--faults requires --run", args.json)
    if args.fault_drop is not None \
            and not 0.0 <= args.fault_drop <= 1.0:
        return _usage_error(f"--fault-drop must be in [0, 1], got "
                            f"{args.fault_drop}", args.json)
    if args.fault_jitter is not None and args.fault_jitter < 0:
        return _usage_error(f"--fault-jitter must be >= 0, got "
                            f"{args.fault_jitter}", args.json)

    try:
        # Every run flag is validated here, --run or not.
        config = RunConfig.from_cli_args(args)
        run_args = int_list(args.args, "--args")
        compiled = compile_earthc(
            source, args.file, optimize=args.optimize,
            config=CommConfig(opt=args.opt_preset), inline=args.inline)
        functions = _selected_functions(compiled, args.function)

        if "simple" in shows:
            for function in functions:
                print(print_function(function))
                print()
        if "threaded" in shows:
            print(compiled.threaded_listing())
            print()
        if "tuples" in shows:
            _show_tuples(compiled, functions)
        if "stats" in shows and compiled.report is not None:
            print("== optimization report: one line per rewrite")
            for record in compiled.report.log:
                if args.function in (None, record.function):
                    print(f"  {record}")
            print()
        if "profile" in shows:
            print(compiled.profile_text())
            print()
        if args.dump_codegen is not None:
            _dump_codegen(compiled, args.dump_codegen, config)

        if args.run:
            if not run_args and args.entry == "main":
                run_args = _catalog_default_args(args.file)
            config = config.replace(args=tuple(run_args))
            result = execute(compiled, config=config)
            tracer, faults = result.tracer, result.faults
            if tracer is not None:
                try:
                    written = export_chrome_trace(tracer, args.trace,
                                                  args.nodes)
                except OSError as exc:
                    return _emit_error(exc, args.json)
            if args.json:
                _print_json(args, compiled, result, tracer)
                return EXIT_OK
            for line in result.output:
                print(line)
            stats = result.stats
            print(f"result  = {result.value}")
            print(f"time    = {result.time_ns / 1e6:.3f} ms simulated "
                  f"on {args.nodes} node(s)")
            print(f"remote  = {stats.remote_reads} reads, "
                  f"{stats.remote_writes} writes, "
                  f"{stats.remote_blkmovs} blkmovs")
            print(f"local   = {stats.local_reads} reads, "
                  f"{stats.local_writes} writes, "
                  f"{stats.local_blkmovs} blkmovs")
            if config.rcache_capacity:
                print(f"rcache  = {stats.rcache_hits} hits, "
                      f"{stats.rcache_misses} misses, "
                      f"{stats.rcache_evictions} evictions, "
                      f"{stats.rcache_invalidations} invalidations")
            if faults is not None:
                print(f"faults  = seed {faults.seed}: "
                      f"{stats.net_drops} drops, "
                      f"{stats.op_retries} retries, "
                      f"{stats.dedup_replays} dedups, "
                      f"{stats.dup_replies} dup replies")
            if tracer is not None:
                print(TraceMetrics(tracer, args.nodes,
                                   result.time_ns).format_text())
                print(f"trace   = {args.trace} ({written} trace events, "
                      f"{tracer.dropped} dropped)")
    except ReproError as exc:
        return _emit_error(exc, args.json)
    return EXIT_OK


def _dump_codegen(compiled, name, config) -> None:
    """``--dump-codegen FUNC``: print the source the codegen engine
    executes for one function under this invocation's run options
    (labels, busy costs, node count, statement budget, tracer sites and
    global addresses baked in), from the program's memo, where a
    following ``--run`` finds it."""
    from repro.earth.codegen import CodegenEngine
    from repro.harness.pipeline import make_interpreter
    if name not in compiled.simple.functions:
        raise ReproError(f"no function named {name!r} "
                         f"(have: {', '.join(compiled.simple.functions)})")
    interp = make_interpreter(compiled, config.replace(engine="codegen"))
    interp._init_globals()
    source = CodegenEngine(interp).function(name).source
    print(f"== codegen source: {name} (nodes={config.nodes})")
    print(source)


def _catalog_default_args(path):
    """Olden benchmarks run without ``--args`` use their catalog size."""
    from repro.olden.loader import catalog
    basename = os.path.basename(path)
    for spec in catalog():
        if spec.filename == basename:
            print(f"(no --args: using {spec.name} catalog size "
                  f"{','.join(map(str, spec.default_args))})",
                  file=sys.stderr)
            return list(spec.default_args)
    return []


def _print_json(args, compiled, result, tracer) -> None:
    """The ``--json`` payload: one object for scripting."""
    payload = {
        "file": args.file,
        "nodes": args.nodes,
        "optimized": compiled.optimized,
        "result": result.value,
        "time_ns": result.time_ns,
        "output": result.output,
        "stats": result.stats.snapshot(),
        "utilization": result.utilization(),
        "compile_profile": compiled.profile.to_dict(),
    }
    if result.faults is not None:
        payload["faults"] = result.faults.describe()
    if compiled.report is not None:
        payload["optimizer"] = compiled.report.to_dict()
    if tracer is not None:
        payload["trace"] = TraceMetrics(tracer, args.nodes,
                                        result.time_ns).to_dict()
        payload["trace_file"] = args.trace
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Service verbs: serve / submit / batch
# ---------------------------------------------------------------------------


def _service_main(verb: str, argv) -> int:
    # Imported lazily: the plain compile path should not pay for
    # asyncio/multiprocessing imports.
    if verb == "serve":
        return _serve_main(argv)
    if verb == "submit":
        return _submit_main(argv)
    if verb == "fleet-store":
        return _fleet_store_main(argv)
    if verb == "genjobs":
        return _genjobs_main(argv)
    return _batch_main(argv)


def _checked_port(port: int, flag: str = "--port") -> int:
    """``port``, refused before any socket is bound or opened when no
    socket can have it."""
    if not 0 <= port <= 65535:
        raise UsageError(f"{flag} must be in 0..65535, got {port}")
    return port


def _run_server(port: int, serve) -> int:
    """Run ``serve()``, a blocking server entry point listening on
    ``port``, until it is shut down; returns the exit code."""
    try:
        _checked_port(port)
        serve()
    except KeyboardInterrupt:
        return EXIT_OK
    except (UsageError, ServiceError, OSError) as exc:
        return _emit_error(exc, False)
    return EXIT_OK


def _serve_main(argv) -> int:
    from repro.service.http import serve_gateway_forever
    from repro.harness.pipeline import PIPELINE_VERSION
    from repro.service import DEFAULT_CACHE_DIR, WorkerPool

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve compile/run jobs over HTTP/1.1 + JSON on "
                    "top of a cached multi-process worker pool")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7781,
                        help="port to listen on (0 picks an ephemeral "
                             "port; default %(default)s)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 runs jobs inline; "
                             "default 2)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="local artifact cache root (default "
                             "%(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="keep the cache in memory only")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-attempt job timeout in seconds "
                             "(default: none)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="attempts per job before giving up "
                             "(crashes/timeouts requeue; default 3)")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help="refuse submissions (Busy / HTTP 503) "
                             "beyond this many in-flight jobs "
                             "(default 64)")
    opts = parser.parse_args(argv)

    if opts.workers < 0:
        return _usage_error(f"--workers must be >= 0, got {opts.workers}")
    if opts.max_attempts < 1:
        return _usage_error(f"--max-attempts must be >= 1, got "
                            f"{opts.max_attempts}")
    if opts.timeout is not None and opts.timeout <= 0:
        return _usage_error(f"--timeout must be > 0, got {opts.timeout}")
    if opts.max_queue_depth < 1:
        return _usage_error(f"--max-queue-depth must be >= 1, got "
                            f"{opts.max_queue_depth}")

    def ready(gateway):
        cache = "memory" if opts.no_cache else opts.cache_dir
        print(f"serving on http://{gateway.host}:{gateway.port} "
              f"(workers={opts.workers}, cache={cache}, "
              f"pipeline {PIPELINE_VERSION})", flush=True)

    def serve():
        pool = WorkerPool(
            opts.workers,
            cache_dir=None if opts.no_cache else opts.cache_dir,
            timeout_s=opts.timeout, max_attempts=opts.max_attempts)
        serve_gateway_forever(pool, opts.host, opts.port,
                              max_queue_depth=opts.max_queue_depth,
                              ready_callback=ready)

    return _run_server(opts.port, serve)


def _submit_main(argv) -> int:
    from repro.service import JobSpec, ServiceClient

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit one job to a running `serve` gateway")
    parser.add_argument("file", nargs="?", default=None,
                        help="EARTH-C source file (or use --benchmark)")
    parser.add_argument("--benchmark", default=None,
                        help="bundled Olden benchmark name")
    parser.add_argument("--kind", default="run",
                        choices=("compile", "run"))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7781)
    _add_run_flags(parser, "--nodes", "--rcache-capacity",
                   "--rcache-line", "--engine", "--params", "--entry",
                   "--faults", "--fault-profile", nodes=4)
    parser.add_argument("--no-optimize", action="store_true")
    parser.add_argument("--inline", action="store_true")
    _add_opt_preset(parser)
    parser.add_argument("--args", default="", dest="run_args",
                        help="comma-separated integer arguments")
    parser.add_argument("--small", action="store_true",
                        help="use the benchmark's reduced problem size")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="client socket timeout in seconds")
    parser.add_argument("--json", action="store_true",
                        help="print the full JobResult as JSON")
    opts = parser.parse_args(argv)

    if (opts.file is None) == (opts.benchmark is None):
        return _usage_error("submit needs exactly one of FILE or "
                            "--benchmark", opts.json)
    source = filename = None
    if opts.file is not None:
        try:
            with open(opts.file) as handle:
                source = handle.read()
        except OSError as exc:
            return _emit_error(exc, opts.json)
        filename = opts.file

    try:
        run_args = int_list(opts.run_args, "--args") or None
        spec = JobSpec(opts.kind, source=source,
                       benchmark=opts.benchmark, filename=filename,
                       optimize=not opts.no_optimize,
                       comm=CommConfig(opt=opts.opt_preset),
                       inline=opts.inline,
                       small=opts.small, args=run_args,
                       **cli_run_options(opts))
        with ServiceClient(opts.host, _checked_port(opts.port),
                           timeout=opts.timeout) as client:
            result = client.submit(spec)
    except (ReproError, ValueError) as exc:
        return _emit_error(exc, opts.json)

    if opts.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_job(result))
    if result.ok:
        return EXIT_OK
    error = result.error or {}
    if not opts.json:
        print(f"error: [{error.get('type', 'unknown')}] "
              f"{error.get('message', 'no message')}", file=sys.stderr)
    return int(error.get("code", EXIT_ERROR))


def _render_job(result, label: str = None) -> str:
    """Human one-or-few-line summary of a JobResult payload."""
    what = f"{label}: " if label else ""
    head = (f"{what}{result.kind}  cache={result.cache or '-'}  "
            f"wall={result.wall_s * 1e3:.1f}ms  "
            f"attempts={result.attempts}")
    if not result.ok:
        error = result.error or {}
        return (f"{head}\n  FAILED [{error.get('type', 'unknown')}] "
                f"{error.get('message', 'no message')}")
    lines = [head]
    payload = result.payload or {}
    if result.kind == "compile":
        lines.append(f"  optimized={payload.get('optimized')}  "
                     f"functions={', '.join(payload.get('functions', []))}")
    elif result.kind == "run":
        run = payload.get("run", {})
        lines.append(f"  result={run.get('value')}  "
                     f"time={run.get('time_ns', 0) / 1e6:.3f}ms "
                     f"simulated on {run.get('num_nodes')} node(s)")
    return "\n".join(lines)


def _batch_main(argv) -> int:
    from repro.harness.experiments import (
        BUNDLE_SWEEPS,
        bundle_jobs,
        bundles_of,
        run_legs,
        sweep_jobs,
    )
    from repro.service import (
        DEFAULT_CACHE_DIR,
        JobSpec,
        ServiceClient,
        WorkerPool,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        description="Run a batch of jobs on a local worker pool or a "
                    "remote compile service")
    parser.add_argument("--jobs", default=None, metavar="FILE",
                        help="JSON file holding an array of job specs "
                             "(overrides the sweep flags)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark sweep "
                             "(default: the full Olden catalog)")
    # A sweep axis, not the run flag of the same name: kept out of the
    # ``nodes`` dest cli_run_options reads.
    parser.add_argument("--nodes", default="1,2,4", dest="node_counts",
                        help="comma-separated processor counts for the "
                             "sweep (default 1,2,4)")
    parser.add_argument("--kind", default="three-way",
                        choices=("compile", "run", "three-way",
                                 "four-way"),
                        help="what the sweep holds per benchmark and "
                             "processor count: one job of that kind, or "
                             "the paper's sequential / simple / optimized "
                             "configurations (four-way: and the cached "
                             "one), one run job each (default "
                             "%(default)s)")
    parser.add_argument("--small", action="store_true",
                        help="use reduced problem sizes")
    _add_run_flags(parser, "--engine", "--rcache-capacity",
                   "--rcache-line", "--faults", "--fault-profile")
    _add_opt_preset(parser)
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker processes (0 = inline; "
                             "default 2)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument("--no-cache", action="store_true",
                        help="keep the cache in memory only")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="submit to a running `serve` gateway "
                             "instead of a local pool")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the JSON result array to FILE")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON result array on stdout")
    opts = parser.parse_args(argv)

    if opts.workers < 0:
        return _usage_error(f"--workers must be >= 0, got {opts.workers}",
                            opts.json)
    #: (benchmark, processors, configuration) -> job, when the sweep is
    #: of the paper's bundles.
    legs = None
    try:
        if opts.jobs is not None:
            try:
                with open(opts.jobs) as handle:
                    raw = json.load(handle)
            except OSError as exc:
                return _emit_error(exc, opts.json)
            except ValueError as exc:
                return _usage_error(f"--jobs file is not JSON: {exc}",
                                    opts.json)
            if not isinstance(raw, list):
                return _usage_error("--jobs file must hold a JSON "
                                    "array of job specs", opts.json)
            specs = [JobSpec.from_dict(entry) for entry in raw]
        else:
            benchmarks = opts.benchmarks.split(",") \
                if opts.benchmarks else None
            counts = int_list(opts.node_counts, "--nodes")
            run = RunConfig.from_cli_args(opts)
            comm = CommConfig(opt=opts.opt_preset)
            if opts.kind in BUNDLE_SWEEPS:
                legs = bundle_jobs(counts, benchmarks, opts.small,
                                   BUNDLE_SWEEPS[opts.kind], run, comm)
                specs = list(legs.values())
            else:
                specs = sweep_jobs(counts, benchmarks, small=opts.small,
                                   kind=opts.kind, run=run, comm=comm)
        if not specs:
            return _usage_error("batch has no jobs to run", opts.json)

        if opts.connect is not None:
            host, _, port_text = opts.connect.rpartition(":")
            if not host or not port_text.isdigit():
                return _usage_error("--connect needs HOST:PORT",
                                    opts.json)
            runner = ServiceClient(host, _checked_port(int(port_text),
                                                       "--connect port"))
            run_batch = runner.batch
        else:
            runner = WorkerPool(
                opts.workers,
                cache_dir=None if opts.no_cache else opts.cache_dir)
            run_batch = runner.run_batch
        with runner:
            if legs is None:
                results = run_batch(specs)
            else:
                results = list(run_legs(legs, run_batch).values())
                if all(result.ok for result in results):
                    bundles_of({label: result.payload["run"]
                                for label, result in zip(legs, results)})
    except (ReproError, ValueError, AssertionError) as exc:
        return _emit_error(exc, opts.json)

    dump = [result.to_dict() for result in results]
    if legs is None:
        labels = [f"{spec.benchmark or spec.filename or '<inline>'} "
                  f"p={spec.run.nodes}" for spec in specs]
    else:
        labels = [f"{name} p={processors} {configuration}"
                  for name, processors, configuration in legs]
        dump = [dict(zip(("benchmark", "processors", "configuration"),
                         label), **entry)
                for label, entry in zip(legs, dump)]
    if opts.output is not None:
        try:
            with open(opts.output, "w") as handle:
                json.dump(dump, handle, indent=2, sort_keys=True)
        except OSError as exc:
            return _emit_error(exc, opts.json)
    if opts.json:
        print(json.dumps(dump, indent=2, sort_keys=True))
    else:
        for label, result in zip(labels, results):
            print(_render_job(result, label=label))
        failed = sum(1 for result in results if not result.ok)
        hits = sum(1 for result in results if result.cache == "hit")
        print(f"batch: {len(results) - failed}/{len(results)} ok, "
              f"{hits} cache hit(s)"
              + (f", written to {opts.output}" if opts.output else ""))

    for result in results:
        if not result.ok:
            return int((result.error or {}).get("code", EXIT_ERROR))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Fleet verbs: fleet-store / genjobs
# ---------------------------------------------------------------------------


def _fleet_store_main(argv) -> int:
    from repro.fleet.store import serve_store_forever

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-store",
        description="Serve a shared content-addressed artifact store "
                    "over HTTP (GET/PUT-if-absent blobs)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7792,
                        help="HTTP port (0 picks an ephemeral port; "
                             "default 7792)")
    parser.add_argument("--cache-dir", required=True,
                        help="directory holding the shared blobs")

    opts = parser.parse_args(argv)

    def ready(store):
        print(f"fleet store on http://{store.host}:{store.port} "
              f"(root={opts.cache_dir})", flush=True)

    return _run_server(opts.port, lambda: serve_store_forever(
        opts.cache_dir, opts.host, opts.port, ready_callback=ready))


def _genjobs_main(argv) -> int:
    from repro.workload import MIXES, SHAPES, generate_jobs

    parser = argparse.ArgumentParser(
        prog="python -m repro genjobs",
        description="Emit a seeded stream of synthetic EARTH-C jobs "
                    "as a JSON array compatible with `batch --jobs` "
                    "and `POST /v1/jobs`")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0); the stream "
                             "is byte-deterministic per seed")
    parser.add_argument("--count", type=int, default=10,
                        help="number of jobs (default 10)")
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma-separated structure shapes "
                             f"(default {','.join(SHAPES)})")
    parser.add_argument("--mixes", default=",".join(sorted(MIXES)),
                        help="comma-separated read/write mixes "
                             f"(default {','.join(sorted(MIXES))})")
    parser.add_argument("--sizes", default="3:8", metavar="LO:HI",
                        help="inclusive structure-size range "
                             "(default 3:8; tree depths cap at 6)")
    parser.add_argument("--sweeps", default="1:3", metavar="LO:HI",
                        help="inclusive sweep-count range (default "
                             "1:3)")
    parser.add_argument("--nodes", default="2,4",
                        help="comma-separated machine sizes to draw "
                             "from (default 2,4)")
    parser.add_argument("--engines", default=DEFAULT_ENGINE,
                        help="comma-separated engine pool (default "
                             f"{DEFAULT_ENGINE})")
    parser.add_argument("--fault-profiles", default="none",
                        help="comma-separated fault-profile pool; "
                             "'none' is a clean network (default "
                             "none)")
    parser.add_argument("--rcache", default="0",
                        help="comma-separated rcache-capacity pool "
                             "in lines (default 0)")
    parser.add_argument("--kind", default="run",
                        choices=("compile", "run"))
    parser.add_argument("--sources", default=None, metavar="DIR",
                        help="also write each generated program as "
                             "DIR/<name>.ec")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the JSON job array to FILE "
                             "instead of stdout")
    opts = parser.parse_args(argv)

    def _range(text, flag):
        low, sep, high = text.partition(":")
        if not sep or not low.strip().isdigit() \
                or not high.strip().isdigit():
            raise ValueError(f"{flag} needs LO:HI, got {text!r}")
        if int(low) > int(high):
            raise ValueError(f"{flag} needs LO <= HI, got {text!r}")
        return int(low), int(high)

    try:
        if opts.count < 1:
            raise ValueError(f"--count must be >= 1, got {opts.count}")
        jobs = generate_jobs(
            opts.seed, opts.count,
            shapes=[p.strip() for p in opts.shapes.split(",")
                    if p.strip()],
            mixes=[p.strip() for p in opts.mixes.split(",")
                   if p.strip()],
            sizes=_range(opts.sizes, "--sizes"),
            sweeps=_range(opts.sweeps, "--sweeps"),
            nodes=int_list(opts.nodes, "--nodes"),
            engines=[p.strip() for p in opts.engines.split(",")
                     if p.strip()],
            fault_profiles=[None if p.strip().lower() == "none"
                            else p.strip()
                            for p in opts.fault_profiles.split(",")
                            if p.strip()],
            rcache_capacities=int_list(opts.rcache, "--rcache"))
    except (ValueError, UsageError) as exc:
        return _usage_error(str(exc))

    text = json.dumps([job.to_dict(opts.kind) for job in jobs],
                      indent=2, sort_keys=True)
    try:
        if opts.sources is not None:
            os.makedirs(opts.sources, exist_ok=True)
            for job in jobs:
                path = os.path.join(opts.sources, job.filename)
                with open(path, "w") as handle:
                    handle.write(job.source)
        if opts.output is not None:
            with open(opts.output, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        return _emit_error(exc, False)
    if opts.output is not None:
        print(f"genjobs: wrote {len(jobs)} job(s) to {opts.output} "
              f"(seed {opts.seed})", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
