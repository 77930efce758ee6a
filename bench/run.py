"""The benchmark's one command.

    python3 bench/run.py --seed 12            # all workloads, tracing off
    python3 bench/run.py --seed 12 --trace    # ... then each traced
    python3 bench/run.py --quick              # smoke run, not comparable
    python3 bench/run.py --workload sim-olden --seed 3 --seconds 10 --trace 0

The last form is what the driver calls: one workload, one JSON object
on the last line of standard output.  Without ``--workload`` every
workload runs in a process of its own (so set-up time and peak memory
are that workload's alone) and the results land in ``bench/out/``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import atexit
import json
import os
import resource
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 12
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run that has not ended by now is killed: the driver allows 180 s.
DEADLINE_S = 170.0


def _fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def load_manifest() -> dict:
    try:
        with open(MANIFEST) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {MANIFEST}: {exc}")


def _import_product() -> None:
    """Put this checkout's ``src`` first, so an installed copy of the
    package is never what gets measured."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no product to measure: {src}/repro is missing")
    sys.path[:0] = [path for path in (ROOT, src) if path not in sys.path]
    import repro  # noqa: F401


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def _kill_children() -> None:
    import multiprocessing
    for child in multiprocessing.active_children():
        child.terminate()


def _watchdog(workload) -> threading.Timer:
    def expire():
        print("bench: run exceeded its deadline; killing it",
              file=sys.stderr, flush=True)
        gateway = getattr(workload, "gateway", None)
        if gateway is not None:
            gateway.kill()
        _kill_children()
        os._exit(3)

    timer = threading.Timer(DEADLINE_S, expire)
    timer.daemon = True
    timer.start()
    return timer


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has
    reaped (the gateway's workers reach us through the gateway)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def summarise(samples, speed) -> dict:
    """End-to-end numbers of one timed section (set-up and memory are
    added by the caller)."""
    from bench import stats
    from bench.host import KERNEL_REF_MS

    good = [s for s in samples if s.ok]
    if not good:
        return {"ops": 0, "attempted": len(samples),
                "failed": len(samples), "rows": {}}
    raw = [(s.input_id, (s.end - s.start) * 1e3) for s in good]
    norm = [(s.input_id, (s.end - s.start) * 1e3
             * speed.factor((s.start + s.end) / 2)) for s in good]
    begin = min(s.start for s in samples)
    end = max(s.end for s in samples)
    kernel_ms = speed.mean_kernel_ms(begin, end)
    raw_rate = len(good) / (end - begin)
    return {
        "ops": len(good),
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "failed_share": (len(samples) - len(good)) / len(samples),
        "timed_s": end - begin,
        "tail": stats.tail_name(len(good)),
        "host_kernel_ms": kernel_ms,
        "op_ms_gmean": stats.gmean_of_input_medians(norm),
        "op_ms_p90": stats.tail(norm),
        "ops_per_s": raw_rate * kernel_ms / KERNEL_REF_MS,
        "raw_op_ms_gmean": stats.gmean_of_input_medians(raw),
        "raw_op_ms_p90": stats.tail(raw),
        "raw_ops_per_s": raw_rate,
        # One row per input, unless every op is its own input.
        "rows": stats.input_medians(norm) if len(good) > 2 * len(
            {s.input_id for s in good}) else {},
    }


def _timed_section(workload, seconds, spans, first=0):
    """Warm up, then time; returns ``(samples, speed, next index)``."""
    from bench.host import HostSpeed
    from bench.workloads import drive

    speed = HostSpeed()
    if not workload.in_thread:
        speed.start_thread()
    try:
        warm = drive(workload, workload.warmup_s, spans_off(workload),
                     speed, first)
        first += len(warm)
        samples = drive(workload, seconds, spans, speed, first)
    finally:
        speed.stop_thread()
    return samples, speed, first + len(samples)


def spans_off(workload):
    from bench.spans import Spans
    return Spans(workload.name, enabled=False)


def _hit_ratio(before, after):
    hits = after[0] - before[0]
    misses = after[1] - before[1]
    return hits / (hits + misses) if hits + misses else None


#: Kernel samples taken on each side of a set-up round.
SETUP_SAMPLES = 8


def _set_up(workload, rounds: int, import_s: float) -> dict:
    """Set up ``rounds`` times (tearing down in between) and leave the
    last one standing.  ``setup_s`` = imports + the median round, each
    scaled by kernel samples taken right around it in this thread -- a
    sampler thread would fight the set-up for the interpreter lock and
    read slow."""
    from bench.host import KERNEL_REF_MS, HostSpeed

    def kernel_ms() -> float:
        speed = HostSpeed()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        return statistics.mean(speed.kernel_ms)

    around = kernel_ms()
    import_norm = import_s * KERNEL_REF_MS / around
    raw, norm = [], []
    for attempt in range(rounds):
        if attempt:
            workload.teardown()
        begin = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - begin
        before, around = around, kernel_ms()
        raw.append(elapsed)
        norm.append(elapsed * KERNEL_REF_MS / ((before + around) / 2))
    return {"setup_s": import_norm + statistics.median(norm),
            "raw_setup_s": import_s + statistics.median(raw),
            "import_s": import_s, "setup_rounds_s": raw}


def _print_summary(workload, opts, summary, extras, problems) -> None:
    from bench.host import KERNEL_REF_MS

    note = "   [--quick: NOT comparable]" if opts.quick else ""
    print(f"== {workload.name}  seed {opts.seed}  "
          f"{'traced' if opts.trace else 'untraced'}{note}")
    print(f"   why: {workload.why}")
    if summary["ops"]:
        print(f"   {summary['ops']} ops in {summary['timed_s']:.2f} s, "
              f"{workload.clients} client(s), closed loop; "
              f"failed_share {summary['failed_share']:.4f} "
              f"({summary['failed']}/{summary['attempted']}); "
              f"host kernel {summary['host_kernel_ms']:.3f} ms "
              f"(reference {KERNEL_REF_MS})")
        print(f"   op_ms_p90 is {summary['tail']} "
              f"({summary['ops']} samples)")
        for name, unit in (("op_ms_gmean", "ms"), ("op_ms_p90", "ms"),
                           ("ops_per_s", "1/s"), ("setup_s", "s")):
            print(f"   {name:14} {summary[name]:12.4f} {unit:4} "
                  f"(raw wall-clock {summary['raw_' + name]:.4f})")
        print(f"   {'':14} set-up = import {summary['import_s']:.3f} s + "
              f"median of "
              f"{[round(s, 3) for s in summary['setup_rounds_s']]}")
        print(f"   {'peak_rss_mb':14} {summary['peak_rss_mb']:12.2f} MiB")
        for input_id, value in summary["rows"].items():
            print(f"      {input_id:28} {value:10.3f} ms")
    for key, value in extras.items():
        print(f"   {key}: {value}")
    for problem in problems:
        print(f"   PROBLEM: {problem}")


def run_workload(opts) -> int:
    """Driver mode: returns the process exit code."""
    manifest = load_manifest()
    _import_product()
    from bench import oracle
    from bench.host import host_record
    from bench.spans import Spans, format_self_times, self_times
    from bench.workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    if opts.workload not in WORKLOADS:
        _fail(f"unknown workload {opts.workload!r} "
              f"(known: {', '.join(WORKLOADS)})")
    os.makedirs(OUT_DIR, exist_ok=True)
    expected = oracle.Expected(opts.expected)
    workload = WORKLOADS[opts.workload](opts.seed, expected, OUT_DIR,
                                        opts.seconds)
    atexit.register(workload.teardown)
    watchdog = _watchdog(workload)
    quick, traced = opts.quick, bool(opts.trace)
    if quick:
        workload.warmup_s = 0.0
    seconds = 0.0 if quick else opts.seconds
    served = hasattr(workload, "cache_counters")
    layer_values = plain = None
    try:
        setup = _set_up(workload,
                        1 if quick or traced else SETUP_REPEATS, import_s)
        spans = Spans(workload.name, enabled=traced)
        first = 0
        if traced:
            # Half the time untraced, half traced, in one process: the
            # ratio is the tracing overhead.  End-to-end numbers never
            # come from a traced run.
            seconds /= 2
            plain, plain_speed, first = _timed_section(
                workload, seconds, spans_off(workload))
            workload.warmup_s = 0.0
        before = workload.cache_counters() if served else None
        samples, speed, _ = _timed_section(workload, seconds, spans, first)
        hit_ratio = _hit_ratio(before, workload.cache_counters()) \
            if served else None
        if traced:
            from bench import layers   # imports every layer: traced only
            layer_values = layers.measure(opts.seed, spans, OUT_DIR, quick,
                                          hit_ratio)
    finally:
        workload.teardown()
    samples = workload.verify(samples)
    summary = summarise(samples, speed)
    summary.update(setup)
    summary["peak_rss_mb"] = _peak_rss_mb()
    summary["oracle_runs"] = expected.oracle_runs
    problems = list(workload.errors)
    if served:
        summary["cache_hit_ratio"] = hit_ratio
        want = 1.0 if workload.disposition == "hit" else 0.0
        if hit_ratio != want:
            problems.append(f"workload mis-built: /metrics shows a hit "
                            f"ratio of {hit_ratio}, not {want}")
    # Every timed op, for anyone who wants another statistic of them:
    # input, seconds into the section, wall-clock ms, host factor, ok.
    origin = min((s.start for s in samples), default=0.0)
    record = {"workload": workload.name, "seed": opts.seed,
              "seconds": opts.seconds, "trace": int(traced),
              "comparable": not quick,
              "host": host_record(ROOT, opts.seed),
              "summary": summary, "extras": workload.extras(),
              "samples": [[s.input_id, round(s.start - origin, 6),
                           round((s.end - s.start) * 1e3, 6),
                           round(speed.factor((s.start + s.end) / 2), 6),
                           s.ok] for s in samples]}
    _print_summary(workload, opts, summary, record["extras"], problems)

    if traced:
        print("   self time by span (traced half, then the probes):")
        print(format_self_times(self_times(spans.records)))
        plain = summarise(plain, plain_speed)
        if summary["ops"] and plain["ops"]:
            record["trace_overhead"] = \
                summary["op_ms_gmean"] / plain["op_ms_gmean"]
            print(f"   tracing overhead: traced / untraced op_ms_gmean = "
                  f"{record['trace_overhead']:.4f}")
        spans.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
        record["per_layer"] = layer_values
        print(layers.format_values(layer_values))
        values, wanted = layer_values["values"], manifest["per_layer"]
    else:
        values, wanted = summary, manifest["end_to_end"]
    missing = [spec["name"] for spec in wanted
               if values.get(spec["name"]) is None]
    if missing:
        problems.append(f"not measured: {', '.join(missing)}")
    record["problems"] = problems
    suffix = "-trace" if traced else ""
    with open(os.path.join(OUT_DIR,
                           f"last-{workload.name}{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=repr)
    watchdog.cancel()
    if missing:
        # Nothing a driver could use; say why and stop.
        _fail("; ".join(problems), code=1)
    correct = summary["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in wanted}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------


def _child(opts, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(opts.seconds), "--trace", str(trace),
            "--expected", opts.expected]
    if opts.quick:
        argv.append("--quick")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=DEADLINE_S + 20)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    suffix = "-trace" if trace else ""
    try:
        with open(os.path.join(OUT_DIR,
                               f"last-{workload}{suffix}.json")) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {"workload": workload, "trace": trace,
                  "problems": ["run wrote no record"]}
    record["exit_code"] = done.returncode
    record.pop("samples", None)    # stays in the per-run file only
    return record


def run_all(opts) -> int:
    """Every workload, each run in a process of its own; repeat *i*
    uses seed + *i*, as the driver's ten runs do."""
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    runs = []
    for repeat in range(opts.repeat):
        for name in names:
            runs.append(_child(opts, name, opts.seed + repeat, 0))
            if opts.trace:
                runs.append(_child(opts, name, opts.seed + repeat, 1))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = opts.out or os.path.join(OUT_DIR, f"run-seed{opts.seed}.json")
    with open(path, "w") as handle:
        json.dump({"seed": opts.seed, "seconds": opts.seconds,
                   "quick": opts.quick, "runs": runs}, handle, indent=1)

    note = "   [--quick: NOT comparable]" if opts.quick else ""
    print(f"\n== end-to-end metrics, median of {opts.repeat} run(s) "
          f"per workload{note}")
    print(f"   {'workload':14}" + "".join(
        f"{m['name'] + ' ' + m['unit']:>18}"
        for m in manifest["end_to_end"]) + f"{'failed_share':>14}")
    for name in names:
        mine = [r["summary"] for r in runs
                if r["workload"] == name and not r.get("trace")
                and r.get("summary", {}).get("ops")]
        if not mine:
            print(f"   {name:14} no successful run")
            continue
        attempted = sum(s["attempted"] for s in mine)
        print(f"   {name:14}" + "".join(
            f"{statistics.median(s[m['name']] for s in mine):>18.4f}"
            for m in manifest["end_to_end"])
            + f"{sum(s['failed'] for s in mine) / attempted:>14.4f}")
    bad = [r for r in runs if r.get("exit_code") != 0]
    print(f"{len(runs)} runs, {len(bad)} failed; wrote {path}")
    for record in bad:
        print(f"  FAILED {record['workload']}: "
              f"{'; '.join(record.get('problems') or ['see above'])}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload in this process "
                             "(default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="record the benchmark's spans and measure "
                             "the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload, one set-up, checks "
                             "on; numbers are not comparable")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: run the set this often, "
                             "with seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None,
                        help="all-workloads mode: where to write results")
    parser.add_argument("--expected", default=None,
                        help="reference outputs (default: "
                             "bench/expected.json)")
    opts = parser.parse_args(argv)
    if opts.seconds is None:
        opts.seconds = float(load_manifest()["run_seconds"])
    if opts.expected is None:
        opts.expected = os.path.join(HERE, "expected.json")
    if opts.workload is None:
        return run_all(opts)
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
