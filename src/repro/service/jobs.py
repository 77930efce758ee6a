"""JSON-serializable job descriptions, their pure executor, and the
cache step around it.

A :class:`JobSpec` names everything a worker needs to reproduce one
pipeline product, with no live objects attached -- jobs cross process
boundaries as JSON.  :func:`compute_job` is the pure half (all a pool
worker runs), :class:`CachedJob` the one definition of lookup-before /
store-after, :func:`execute_job` the two in one process.  A job is one
compile and at most one run -- two public kinds:

* ``compile`` -- run the compile pipeline, return the deterministic
  compile payload (SIMPLE + Threaded-C listings, optimizer counters);
* ``run`` -- compile then execute on the simulator (engine, node
  count, machine-parameter preset, optional fault plan).

The paper's sequential/simple/optimized(/rcached) comparison is not a
kind: it is a composition of ``run`` jobs, one per configuration
(:func:`repro.harness.experiments.leg_job`), so every leg has a content
address of its own and is computed once whoever asks for it.

A third internal kind, ``selftest``, exists for the service's own
tests and smoke checks (echo a value, sleep, fail, or hard-crash the
worker); it is never cached.  A sleep is bounded (:data:`MAX_SLEEP_S`),
and a crash computed outside a pool worker is an error, not an exit:
no client stops a process that serves other clients.

Payloads contain only *deterministic* fields -- simulated time, values,
output, stats -- never wall-clock timings, so a served result can be
compared bit-for-bit against an in-process run.  Wall-clock metadata
(latency, worker id, attempts, cache disposition) lives on the
:class:`JobResult` envelope instead.

Jobs may reference a bundled Olden benchmark by name instead of
carrying source text; the worker resolves the name through
:mod:`repro.olden.loader`.  Cache keys are computed over the *resolved*
inputs (canonicalized source text, full option set, pipeline version),
so a benchmark job and an equivalent source job share an address.
"""

from __future__ import annotations

import math
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Union

from repro.comm.optimizer import CommConfig
from repro.config import WIRE_FIELDS, RunConfig
from repro.earth.interpreter import RunResult
from repro.errors import (
    ReproError,
    ServiceError,
    error_body,
    exit_code_for,
    shown,
)
from repro.harness.pipeline import (
    PIPELINE_VERSION,
    CompiledProgram,
    compile_earthc,
    execute,
)
from repro.service.cache import (
    ArtifactCache,
    cache_key,
    canonicalize_source,
)

JOB_KINDS = ("compile", "run", "selftest")

_SELFTEST_BEHAVIORS = ("echo", "sleep", "fail", "crash")
#: The longest ``sleep`` a selftest job may ask for, in seconds: a
#: sleep holds a worker or a gateway thread for as long as it lasts.
MAX_SLEEP_S = 60

#: The run options a spec accepts: RunConfig's wire fields.
_RUN_KEYS = frozenset(WIRE_FIELDS)


class JobSpec:
    """One serializable unit of service work: what to compile (the
    fields below; ``comm`` is a :class:`CommConfig` or its JSON) and
    how to run it (``run``, one :class:`~repro.config.RunConfig`).

    Construction and the wire form are flat: the spec's own keys and
    every :data:`~repro.config.WIRE_FIELDS` run option side by side
    (``JobSpec("run", source=..., nodes=2, engine="ast")``), so a run
    option is declared on ``RunConfig`` and nowhere here.  Two of them,
    ``args`` and ``max_stmts``, may stay None -- "the benchmark
    catalog's" -- and are kept as given until :meth:`resolved`."""

    #: The most bytes a job carries: the UTF-8 form of ``source``, and
    #: the request body a gateway reads (its framing takes this bound).
    MAX_SOURCE_BYTES = 32 * 1024 * 1024

    def __init__(
        self,
        kind: str,
        source: Optional[str] = None,
        benchmark: Optional[str] = None,
        filename: Optional[str] = None,
        optimize: bool = True,
        comm: Union[CommConfig, Dict[str, object], None] = None,
        inline: Union[bool, Sequence[str]] = False,
        small: bool = False,
        selftest: Optional[Dict[str, object]] = None,
        args: Optional[Sequence[Union[int, float]]] = None,
        max_stmts: Optional[int] = None,
        **run_options,
    ):
        if kind not in JOB_KINDS:
            raise ServiceError(f"unknown job kind {shown(kind)} "
                               f"(known: {', '.join(JOB_KINDS)})")
        if kind == "selftest":
            if not isinstance(selftest, dict) \
                    or selftest.get("behavior") not in _SELFTEST_BEHAVIORS:
                raise ServiceError(
                    "selftest jobs need selftest={'behavior': one of "
                    f"{', '.join(_SELFTEST_BEHAVIORS)}, ...}}")
        else:
            if (source is None) == (benchmark is None):
                raise ServiceError(
                    f"{kind} jobs need exactly one of source= or "
                    f"benchmark=")
        if selftest is not None:
            if not isinstance(selftest, dict):
                raise ServiceError(f"selftest must be an object, got "
                                   f"{type(selftest).__name__}")
            _check_selftest(selftest)
        for name, text in (("source", source), ("benchmark", benchmark),
                           ("filename", filename)):
            if text is not None and not isinstance(text, str):
                raise ServiceError(f"{name} must be a string, got "
                                   f"{type(text).__name__}")
        # A character is at most four bytes: only a long text is encoded.
        if source is not None \
                and len(source) * 4 > self.MAX_SOURCE_BYTES \
                and len(source.encode("utf-8", "surrogatepass")) \
                > self.MAX_SOURCE_BYTES:
            raise ServiceError(f"source must be at most "
                               f"{self.MAX_SOURCE_BYTES} bytes of UTF-8")
        # On the wire "no" and 1 are truthy.
        for name, switch in (("optimize", optimize), ("small", small)):
            if type(switch) is not bool:
                raise ServiceError(f"{name} must be a bool, got "
                                   f"{shown(switch)}")
        # A string is a sequence too: "add" would inline 'a' and 'd'.
        if not isinstance(inline, bool) and not (
                isinstance(inline, (list, tuple, set, frozenset))
                and all(isinstance(name, str) for name in inline)):
            raise ServiceError(f"inline must be a bool or a list of "
                               f"function names, got {shown(inline)}")
        unknown = run_options.keys() - _RUN_KEYS
        if unknown:
            raise ServiceError(
                f"unknown job spec fields: {sorted(unknown)}")
        if args is not None:
            run_options["args"] = args
        if max_stmts is not None:
            run_options["max_stmts"] = max_stmts
        run_options.setdefault("nodes", 4)   # a job's default machine
        try:
            # The one validation of every option, so a bad value fails
            # at submission, not in a worker.
            self.run = RunConfig(**run_options)
            if not isinstance(comm, CommConfig):
                comm = CommConfig.from_json({} if comm is None else comm)
        except ReproError as exc:
            raise ServiceError(str(exc)) from None
        self.kind = kind
        self.source = source
        self.benchmark = benchmark
        self.filename = filename
        self.optimize = optimize
        self.comm = comm
        self.inline: Union[bool, List[str]] = (
            sorted(inline) if not isinstance(inline, bool) else inline)
        self.small = small
        self.selftest = None if selftest is None else dict(selftest)
        self.args = None if args is None else list(args)
        self.max_stmts = max_stmts

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Full, stable-schema JSON form (the wire format)."""
        out = {**self.run.wire(), **vars(self),
               "comm": self.comm.to_json()}
        del out["run"]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be an object, got {type(data).__name__}")
        if "kind" not in data:
            raise ServiceError("job spec is missing 'kind'")
        try:
            # None means "default" for every optional field.
            spec = cls(**{key: value for key, value in data.items()
                          if value is not None})
        except TypeError as exc:
            raise ServiceError(f"bad job spec: {exc}") from None
        # Python's json reads and writes NaN and Infinity; JSON has
        # neither, so a spec may not hold one anywhere (a field that
        # checks its own numbers has already named itself).
        stack: List[object] = [data]
        while stack:
            value = stack.pop()
            if type(value) is float and not math.isfinite(value):
                raise ServiceError("job spec holds a non-finite number "
                                   f"({value}); JSON has none")
            if isinstance(value, dict):
                stack.extend(value.values())
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
        return spec

    # -- resolution --------------------------------------------------------

    def _spec_from_catalog(self):
        from repro.olden.loader import get_benchmark
        try:
            return get_benchmark(self.benchmark)
        except KeyError as exc:
            raise ServiceError(str(exc.args[0])) from None

    def resolved(self) -> Dict[str, object]:
        """The fully-resolved execution inputs: benchmark references
        expanded to source text, argument defaults applied.  This --
        not the raw spec -- is what gets hashed, so equivalent jobs
        share a cache address."""
        if self.kind == "selftest":
            return {"kind": "selftest", "selftest": self.selftest}
        inline = self.inline
        #: What the catalog settles about the run.
        changes: Dict[str, object] = {}
        if self.benchmark is not None:
            spec = self._spec_from_catalog()
            source = spec.source()
            filename = spec.filename
            if inline is False:
                inline = spec.inline
            if self.max_stmts is None:
                changes["max_stmts"] = spec.max_stmts
            if self.args is None:
                changes["args"] = spec.small_args if self.small \
                    else spec.default_args
        else:
            source = self.source
            filename = self.filename or "<job>"
        if not isinstance(inline, bool):
            # One product, one address: a name listed twice inlines
            # once, and a list of no names inlines nothing.
            inline = sorted(set(inline)) or False
        resolved = {
            "kind": self.kind,
            "source": canonicalize_source(source),
            "filename": filename,
            "inline": inline,
            "version": PIPELINE_VERSION,
            "options": {
                "optimize": self.optimize,
                # Not read without the optimizer: one address.
                "comm": self.comm.to_json() if self.optimize else None,
            },
        }
        if self.kind == "run":
            run = self.run.replace(**changes) if changes else self.run
            # The config's canonical JSON form is embedded verbatim:
            # every run option -- current and future -- lands in the
            # cache key without per-field bookkeeping here.
            resolved["run"] = run.to_json()
        return resolved

    def cacheable(self) -> bool:
        return self.kind != "selftest"

    def canonical_key(self) -> str:
        """Content address over the resolved inputs (including the
        pipeline version stamp).  Defined for every kind -- the server
        single-flights selftest jobs by this key too -- but only
        :meth:`cacheable` kinds are stored.  A spec JSON cannot write
        (an int past Python's digit limit for printing) has none."""
        resolved = self.resolved()
        try:
            return cache_key(resolved)
        except ValueError as exc:
            raise ServiceError(f"job spec has no content address: "
                               f"{exc}") from None

    def __repr__(self) -> str:
        what = self.benchmark or self.filename or "<inline>"
        return f"JobSpec({self.kind}, {what}, nodes={self.run.nodes})"


def _check_selftest(selftest: Dict[str, object]) -> None:
    """Refuse a selftest whose ``sleep`` or ``crash`` would not end."""
    seconds = selftest.get("seconds", 0)
    # NaN fails the range test too; a bool is no number of seconds.
    if type(seconds) not in (int, float) \
            or not 0 <= seconds <= MAX_SLEEP_S:
        raise ServiceError(f"selftest seconds must be a number in "
                           f"[0, {MAX_SLEEP_S}]")
    code = selftest.get("exit_code", 17)
    if type(code) is not int or not 1 <= code <= 255:
        raise ServiceError("selftest exit_code must be an integer in "
                           "[1, 255]")


class JobResult:
    """The envelope a job execution returns: the deterministic payload
    plus non-deterministic metadata (latency, worker, attempts, cache
    disposition)."""

    def __init__(self, ok: bool, kind: str, key: Optional[str],
                 payload: Optional[Dict[str, object]] = None,
                 error: Optional[Dict[str, object]] = None,
                 wall_s: float = 0.0,
                 cache: Optional[str] = None,
                 worker: Optional[int] = None,
                 attempts: int = 1):
        self.ok = ok
        self.kind = kind
        self.key = key
        self.payload = payload
        self.error = error
        self.wall_s = wall_s
        self.cache = cache          # "hit" | "miss" | None (uncacheable)
        self.worker = worker        # None: a hit, or computed in-process
        self.attempts = attempts

    @classmethod
    def failed(cls, kind: str, exc: BaseException,
               code: Optional[int] = None, key: Optional[str] = None,
               **envelope) -> "JobResult":
        """A failure as data: ``exc`` under its class name and the exit
        code the CLI would use for it (or ``code``)."""
        if code is None:
            try:
                code = exit_code_for(exc)
            except TypeError:
                code = 1
        error = error_body(type(exc).__name__, str(exc), code)["error"]
        return cls(False, kind, key, error=error, **envelope)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "key": self.key,
            "payload": self.payload,
            "error": self.error,
            "wall_s": self.wall_s,
            "cache": self.cache,
            "worker": self.worker,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobResult":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ServiceError(f"bad job result: {exc}") from None

    def raise_if_failed(self) -> "JobResult":
        if not self.ok:
            error = self.error or {}
            raise ServiceError(
                f"job failed [{error.get('type', 'unknown')}]: "
                f"{error.get('message', 'no message')}",
                code=error.get("code"))
        return self

    def __repr__(self) -> str:
        status = "ok" if self.ok else "error"
        return (f"JobResult({self.kind}, {status}, cache={self.cache}, "
                f"{self.wall_s * 1e3:.1f}ms)")


# ---------------------------------------------------------------------------
# Deterministic payload builders
# ---------------------------------------------------------------------------


def run_payload(result: RunResult) -> Dict[str, object]:
    """The deterministic slice of a :class:`RunResult`: everything the
    simulator computes, nothing the host's clock touched."""
    return {
        "value": result.value,
        "time_ns": result.time_ns,
        "output": list(result.output),
        "num_nodes": result.num_nodes,
        "stats": result.stats.snapshot(),
        "utilization": result.utilization(),
    }


def compile_payload(compiled: CompiledProgram) -> Dict[str, object]:
    """The deterministic slice of a :class:`CompiledProgram`; the
    wall-clock compile profile is deliberately excluded so cached and
    fresh payloads compare equal."""
    payload: Dict[str, object] = {
        "optimized": compiled.optimized,
        "inlined_calls": compiled.inlined_calls,
        "functions": sorted(compiled.simple.functions),
        "listing": compiled.listing(),
        "threaded": compiled.threaded_listing(),
    }
    if compiled.report is not None:
        payload["optimizer"] = {
            "total_forwarded": compiled.report.total_forwarded(),
            "pass_counters": compiled.report.pass_counters(),
        }
    return payload


# ---------------------------------------------------------------------------
# Execution: the pure compute half, and the cache step around it
# ---------------------------------------------------------------------------

#: Warm-pipeline memo: compiled programs keyed by their compile-level
#: content address, bounded per process.  This is what makes a warm
#: worker fast on repeat sources even when the run parameters differ.
_COMPILE_MEMO: "OrderedDict[str, CompiledProgram]" = OrderedDict()
_COMPILE_MEMO_LIMIT = 32


def _compile_for(resolved: Dict[str, object]) -> CompiledProgram:
    options = resolved["options"]
    memo_key = cache_key({
        "source": resolved["source"],
        "inline": resolved["inline"],
        "options": options,
        "version": PIPELINE_VERSION,
    })
    compiled = _COMPILE_MEMO.get(memo_key)
    if compiled is not None:
        _COMPILE_MEMO.move_to_end(memo_key)
        return compiled
    inline, comm = resolved["inline"], options["comm"]
    compiled = compile_earthc(
        resolved["source"], resolved["filename"],
        optimize=options["optimize"],
        config=None if comm is None else CommConfig.from_json(comm),
        inline=set(inline) if isinstance(inline, list) else inline)
    _COMPILE_MEMO[memo_key] = compiled
    while len(_COMPILE_MEMO) > _COMPILE_MEMO_LIMIT:
        _COMPILE_MEMO.popitem(last=False)
    return compiled


def _execute_selftest(spec: JobSpec,
                      worker: Optional[int]) -> Dict[str, object]:
    behavior = spec.selftest["behavior"]
    if behavior == "echo":
        return {"echo": spec.selftest.get("value")}
    if behavior == "sleep":
        seconds = float(spec.selftest.get("seconds", 0.1))
        time.sleep(seconds)
        return {"slept_s": seconds, "echo": spec.selftest.get("value")}
    if behavior == "fail":
        raise ServiceError(spec.selftest.get("message", "selftest failure"))
    # "crash": kill the worker process without cleanup -- exercises the
    # pool's crash detection and bounded requeue.  Outside a worker (an
    # inline pool, a gateway's own process) there is none to kill.
    if worker is None:
        raise ServiceError("a selftest crash needs a pool worker to "
                           "crash; this job was computed in-process")
    os._exit(spec.selftest.get("exit_code", 17))


def _compute_payload(spec: JobSpec, resolved: Dict[str, object],
                     worker: Optional[int]) -> Dict[str, object]:
    if spec.kind == "selftest":
        return _execute_selftest(spec, worker)
    if spec.kind == "compile":
        return compile_payload(_compile_for(resolved))
    compiled = _compile_for(resolved)
    result = execute(compiled,
                     config=RunConfig.from_json(resolved["run"]))
    return {"run": run_payload(result),
            "compile": compile_payload(compiled)}


def compute_job(spec: JobSpec, worker: Optional[int] = None) -> JobResult:
    """The pure half of a job, and all a pool worker runs: spec in,
    payload or structured error out.  No cache, no key."""
    start = time.perf_counter()
    try:
        payload = _compute_payload(spec, spec.resolved(), worker)
    except (ReproError, OSError, ValueError, KeyError,
            AssertionError) as exc:
        return JobResult.failed(spec.kind, exc, worker=worker,
                                wall_s=time.perf_counter() - start)
    return JobResult(True, spec.kind, None, payload=payload,
                     wall_s=time.perf_counter() - start, worker=worker)


class CachedJob:
    """One job's two stops at a cache: :meth:`lookup` before its
    payload is computed, :meth:`store` after.  The only place a job's
    key, cache disposition and service time (``wall_s``: lookup +
    compute + store, queueing excluded) are settled, so the envelope
    is the same wherever the payload is computed in between.  ``key``
    is the address the job was admitted under, if already computed."""

    def __init__(self, spec: JobSpec, cache: Optional[ArtifactCache],
                 key: Optional[str] = None):
        self.spec = spec
        self.cacheable = spec.cacheable()
        self.cache = cache if self.cacheable else None
        self.key = key if self.cacheable else None
        self.wall_s = 0.0

    def lookup(self, memory_only: bool = False) -> Optional[JobResult]:
        """The finished result -- a hit, or the failure of a spec whose
        inputs do not resolve (an unknown benchmark name) -- or None:
        the payload has to be computed.  ``memory_only`` probes the
        memory tier alone (:meth:`ArtifactCache.recall`: no disk); its
        None is not a counted miss."""
        start = time.perf_counter()
        if self.cacheable and self.key is None:
            try:
                self.key = self.spec.canonical_key()
            except ReproError as exc:
                return JobResult.failed(
                    self.spec.kind, exc,
                    wall_s=time.perf_counter() - start)
        payload = None
        if self.cache is not None:
            probe = self.cache.recall if memory_only else self.cache.get
            payload = probe(self.key)
        self.wall_s = time.perf_counter() - start
        if payload is None:
            return None
        return JobResult(True, self.spec.kind, self.key, payload=payload,
                         wall_s=self.wall_s, cache="hit")

    def store(self, computed: JobResult) -> JobResult:
        """Finish a computed result: key and disposition on the
        envelope, payload into the cache.  A store that fails
        (unwritable directory, full disk) is counted by the cache
        (``put_errors``) and costs the job nothing."""
        start = time.perf_counter()
        computed.key = self.key
        if self.cache is not None:
            computed.cache = "miss"
            if computed.ok:
                try:
                    self.cache.put(self.key, computed.payload)
                except OSError:
                    pass
        computed.wall_s += self.wall_s + time.perf_counter() - start
        return computed


def execute_job(spec: JobSpec,
                cache: Optional[ArtifactCache] = None,
                worker: Optional[int] = None) -> JobResult:
    """Run one job in this process, consulting and feeding ``cache``
    when given.

    Never raises for job-level failures: compile/simulator/service
    errors come back as an ``ok=False`` result whose ``error`` object
    carries the same class name and exit code the CLI would use.
    (Worker *crashes* are a different story -- the pool handles those.)
    """
    job = CachedJob(spec, cache)
    result = job.lookup()
    if result is None:
        result = job.store(compute_job(spec))
    result.worker = worker
    return result
