"""Multi-process worker pool with warm pipelines and bounded requeue.

The pool owns exactly one cache, in the parent process, in front of
its workers (:class:`~repro.service.cache.ArtifactCache`, or the
fleet's three-tier one when a store URL is given).  A job is looked up
in the submitting thread: a hit is finished there, never crosses a
process boundary, and is answered while every worker is busy.  A
server's event loop asks first (:meth:`WorkerPool.recall`): a hit in
the memory tier is finished on the loop and crosses no thread either;
only memory is probed there, as disk, network or compute would stall
every connection.  A miss fans out to one of ``workers`` OS processes,
each a pure function of the spec with a *warm* pipeline (the
per-process compile memo in :mod:`repro.service.jobs`), and the thread
that waits for the job stores its payload -- never the collector
thread, so a slow store delays the job that missed and nothing else.

The parent is also the scheduler: it keeps the authoritative job table
and dispatches at most one job at a time to each worker over a
per-worker queue.  That makes crash attribution exact -- if a worker
dies, the parent knows precisely which job it owned without trusting any
worker-side announcement (a crashing process loses whatever its queue
feeder thread had buffered).  A collector thread drains completions,
polices liveness and per-attempt timeouts, and requeues victims with
exponential backoff up to a bounded attempt budget -- the same retry
discipline the simulator's split-phase resilience layer uses (PR 3),
applied one level up.

Guarantees:

* **deterministic ordering** -- :meth:`WorkerPool.run_batch` returns
  results in submission order, whatever the worker count or
  completion interleaving;
* **crash containment** -- a worker dying mid-job costs that job one
  attempt, not the batch;
* **timeout containment** -- a job exceeding ``timeout_s`` gets its
  worker terminated and replaced, and the job is retried or failed
  with a structured error once the budget is exhausted.

``workers=0`` computes misses inline in the submitting thread (no
subprocesses) -- the serial baseline and the mode embedded servers use
on single-core hosts -- and differs in nothing else.

:class:`JobAdmission` is the door a server puts in front of the pool.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError, error_body
from repro.obs.metrics import ServiceMetrics
from repro.service.cache import DEFAULT_CACHE_DIR, ArtifactCache
from repro.service.jobs import CachedJob, JobResult, JobSpec, compute_job


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker process loop: pull (job_id, spec, attempts) tuples from
    this worker's own queue, compute, report ``(job_id, worker_id,
    result)`` on the shared result queue.  Runs until it receives the
    ``None`` sentinel."""
    while True:
        item = task_q.get()
        if item is None:
            return
        job_id, spec_dict, attempts = item
        try:
            result = compute_job(JobSpec.from_dict(spec_dict), worker_id)
        except BaseException as exc:  # never hang the parent silently
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            result = JobResult.failed(spec_dict.get("kind", "unknown"),
                                      exc, 6, worker=worker_id)
        result.attempts = attempts
        result_q.put((job_id, worker_id, result.to_dict()))


class WorkerPool:
    """A crash-tolerant multiprocessing pool for :class:`JobSpec` work.

    ``timeout_s`` bounds one *attempt* of one job; ``max_attempts``
    bounds total tries (first run included); ``backoff_s`` seeds the
    exponential requeue delay (``backoff_s * 2**(attempt-1)``).
    """

    def __init__(self, workers: int = 1,
                 cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                 timeout_s: Optional[float] = None,
                 max_attempts: int = 3,
                 backoff_s: float = 0.05,
                 store_url: Optional[str] = None):
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.store_url = store_url
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.metrics = ServiceMetrics()
        #: The pool's one cache, whatever the worker count: the two
        #: local tiers, plus the fleet's remote store under a store URL
        #: (imported lazily: plain pools do not pay for the package).
        if store_url is None:
            self.cache = ArtifactCache(cache_dir)
        else:
            from repro.fleet.store import FleetCache, RemoteStore
            self.cache = FleetCache(cache_dir, RemoteStore(store_url))
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._started = False
        self._closing = False
        self._cond = threading.Condition()
        self._next_id = 0
        # job_id -> {"spec", "job", "attempts", "dispatched_at", "worker"}
        self._pending: Dict[int, Dict[str, object]] = {}
        # job_id -> (result, the CachedJob still to store it or None)
        self._results: Dict[int, Tuple[JobResult,
                                       Optional[CachedJob]]] = {}
        self._backlog: Deque[int] = deque()
        self._deferred: List[Tuple[float, int]] = []
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._task_qs: Dict[int, object] = {}
        self._busy: Dict[int, Optional[int]] = {}
        self._result_q = None
        self._collector: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started or self.workers == 0:
            self._started = True
            return self
        self._result_q = self._ctx.Queue()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True)
        self._collector.start()
        self._started = True
        return self

    #: Sentinel owner for a worker that died and is awaiting respawn;
    #: keeps the dispatcher from handing jobs to its orphaned queue.
    _DEAD = -1

    def _spawn(self, worker_id: int) -> None:
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_q, self._result_q),
            name=f"repro-worker-{worker_id}", daemon=True)
        proc.start()
        with self._cond:
            self._task_qs[worker_id] = task_q
            self._procs[worker_id] = proc
            self._busy[worker_id] = None

    def close(self) -> None:
        """Stop workers and the collector.  Pending jobs that never
        completed are failed with a shutdown error, and a worker still
        computing one is terminated at once: nobody waits for its
        result, and it writes no cache entry (the parent stores)."""
        with self._cond:
            self._closing = True
            for job_id, entry in list(self._pending.items()):
                if job_id not in self._results:
                    self._results[job_id] = (JobResult.failed(
                        entry["spec"]["kind"], ServiceError(
                            "pool closed before the job completed")), None)
            self._pending.clear()
            self._backlog.clear()
            busy = {worker_id for worker_id, owned in self._busy.items()
                    if owned is not None}
            self._cond.notify_all()
        for worker_id, proc in self._procs.items():
            if worker_id in busy:
                proc.terminate()
            else:
                # An idle worker exits on the sentinel.
                self._task_qs[worker_id].put(None)
        for proc in self._procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        self._procs.clear()
        self._task_qs.clear()
        self._busy.clear()
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec, key: Optional[str] = None) -> int:
        """Look the job up (under ``key``, if the caller admitted it
        under one) and enqueue a miss; returns its id.  A hit is
        finished before this returns and reaches no queue; in inline
        mode (workers=0) so is a miss, computed and stored here."""
        if not self._started:
            self.start()
        if self._closing:
            raise ServiceError("pool is closed")
        job = CachedJob(spec, self.cache, key)
        result = job.lookup()   # first: if it raises, nothing was counted
        with self._cond:
            job_id = self._next_id
            self._next_id += 1
        self.metrics.incr("jobs_submitted")
        self.metrics.adjust_queue_depth(+1)
        if result is None and self.workers == 0:
            result = job.store(compute_job(spec))
        if result is not None:
            self._finish(job_id, result)
        else:
            with self._cond:
                self._pending[job_id] = {
                    "spec": spec.to_dict(), "job": job, "attempts": 1,
                    "dispatched_at": None, "worker": None}
                self._backlog.append(job_id)
            self._dispatch()
        return job_id

    def recall(self, spec: JobSpec, key: str) -> Optional[JobResult]:
        """The job finished from the cache's memory tier, or None.  No
        disk, network, compute or queue is touched, so an event loop
        may ask.  A hit counts as one through :meth:`run_job` does, but
        it enters no queue and so leaves the queue depth (and its peak)
        alone."""
        result = CachedJob(spec, self.cache, key).lookup(memory_only=True)
        if result is not None:
            self.metrics.incr("jobs_submitted")
            self.metrics.observe_job(result.wall_s, True)
        return result

    def wait(self, job_id: int,
             timeout: Optional[float] = None) -> JobResult:
        """Block until a submitted job completes; returns its result.
        A payload a worker computed is stored here, by the thread that
        waited for it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while job_id not in self._results:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServiceError(
                            f"timed out waiting for job {job_id}")
                if job_id not in self._pending and not self._closing:
                    raise ServiceError(f"unknown job id {job_id}")
                self._cond.wait(timeout=remaining
                                if remaining is not None else 0.5)
            result, job = self._results.pop(job_id)
        if job is not None:
            result = job.store(result)
        self.metrics.observe_job(result.wall_s,
                                 None if result.cache is None
                                 else result.cache == "hit",
                                 ok=result.ok)
        return result

    def run_job(self, spec: JobSpec, timeout: Optional[float] = None,
                key: Optional[str] = None) -> JobResult:
        """Submit one job and wait for it (thread-safe; the server's
        executor threads call this concurrently)."""
        return self.wait(self.submit(spec, key), timeout=timeout)

    def run_batch(self, specs: Sequence[JobSpec],
                  timeout: Optional[float] = None) -> List[JobResult]:
        """Run many jobs; results come back in submission order,
        independent of worker count and completion interleaving."""
        ids = [self.submit(spec) for spec in specs]
        return [self.wait(job_id, timeout=timeout) for job_id in ids]

    # -- scheduling --------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand backlog jobs to idle workers (parent-side scheduling:
        at most one in-flight job per worker, so crash attribution is
        exact).  Assignment and the queue put happen under the lock so
        a concurrent respawn can never orphan a just-dispatched job on
        a dead worker's old queue."""
        with self._cond:
            for worker_id, owned in self._busy.items():
                if owned is not None or not self._backlog:
                    continue
                job_id = self._backlog.popleft()
                entry = self._pending.get(job_id)
                if entry is None:
                    continue
                entry["dispatched_at"] = time.monotonic()
                entry["worker"] = worker_id
                self._busy[worker_id] = job_id
                self._task_qs[worker_id].put(
                    (job_id, entry["spec"], entry["attempts"]))

    # -- completion & resilience ------------------------------------------

    def _finish(self, job_id: int, result: JobResult,
                job: Optional[CachedJob] = None) -> None:
        """Hand a result to whoever waits for it; ``job`` when the
        payload was just computed and is still to be stored."""
        self.metrics.adjust_queue_depth(-1)
        with self._cond:
            self._pending.pop(job_id, None)
            self._results[job_id] = (result, job)
            self._cond.notify_all()

    def _collect(self) -> None:
        """Collector thread: drain completions, flush deferred
        requeues, police liveness and timeouts."""
        while True:
            with self._cond:
                if self._closing:
                    return
            try:
                message = self._result_q.get(timeout=0.05)
            except queue.Empty:
                message = None
            if message is not None:
                job_id, worker_id, body = message
                with self._cond:
                    if self._busy.get(worker_id) == job_id:
                        self._busy[worker_id] = None
                    entry = self._pending.get(job_id)
                if entry is not None:
                    self._finish(job_id, JobResult.from_dict(body),
                                 entry["job"])
            self._flush_deferred()
            self._police_workers()
            self._dispatch()

    def _flush_deferred(self) -> None:
        now = time.monotonic()
        with self._cond:
            still: List[Tuple[float, int]] = []
            for due, job_id in self._deferred:
                if job_id not in self._pending:
                    continue
                if due <= now:
                    self._backlog.append(job_id)
                else:
                    still.append((due, job_id))
            self._deferred = still

    def _police_workers(self) -> None:
        if self._closing:
            return
        now = time.monotonic()
        # Timeouts: terminate the worker; the liveness sweep below then
        # handles the requeue uniformly.
        if self.timeout_s is not None:
            with self._cond:
                overdue = [
                    entry["worker"]
                    for entry in self._pending.values()
                    if entry["dispatched_at"] is not None
                    and entry["worker"] is not None
                    and now - entry["dispatched_at"] > self.timeout_s]
            for worker_id in overdue:
                proc = self._procs.get(worker_id)
                if proc is not None and proc.is_alive():
                    self.metrics.incr("job_timeouts")
                    proc.terminate()
                    proc.join(timeout=1.0)
        # Liveness: a dead worker forfeits its in-flight job.
        with self._cond:
            dead = [worker_id
                    for worker_id, proc in self._procs.items()
                    if not proc.is_alive()]
        for worker_id in dead:
            self.metrics.incr("worker_crashes")
            with self._cond:
                victim = self._busy.get(worker_id)
                # Park the slot until the respawn registers its fresh
                # queue; the dispatcher skips non-idle workers.
                self._busy[worker_id] = self._DEAD
            if victim is not None and victim != self._DEAD:
                self._requeue_or_fail(victim)
            self._spawn(worker_id)

    def _requeue_or_fail(self, job_id: int) -> None:
        with self._cond:
            entry = self._pending.get(job_id)
            if entry is None or job_id in self._results:
                return
            attempts = entry["attempts"]
            if attempts >= self.max_attempts:
                result = JobResult.failed(
                    entry["spec"]["kind"], ServiceError(
                        f"worker crashed or timed out; gave up after "
                        f"{attempts} attempt(s)"), attempts=attempts)
            else:
                entry["attempts"] = attempts + 1
                entry["dispatched_at"] = None
                entry["worker"] = None
                delay = self.backoff_s * (2 ** (attempts - 1))
                self._deferred.append((time.monotonic() + delay, job_id))
                result = None
        if result is not None:
            self._finish(job_id, result)
        else:
            self.metrics.incr("jobs_requeued")

    # -- reporting ---------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """``/metrics``: the service counters, the cache's snapshot
        under ``cache``, the remote tier's probe counts read from it."""
        data = self.metrics.to_dict()
        data["workers"] = self.workers
        if self.store_url is not None:
            data["store_url"] = self.store_url
        data["cache"] = self.cache.snapshot()
        remote = data["cache"].get("remote", {})
        for name in ("hits", "misses", "puts", "fallbacks"):
            data[f"store_{name}"] = remote.get(name, 0)
        return data

    def __repr__(self) -> str:
        mode = "inline" if self.workers == 0 else f"{self.workers} procs"
        return f"WorkerPool({mode}, cache={self.cache_dir!r})"


class JobAdmission:
    """The one place a served job is admitted to a :class:`WorkerPool`.

    * **single-flight deduplication** -- identical jobs (same content
      address) submitted while one is already executing *join* the
      in-flight computation instead of re-running it; every joiner
      gets the same payload;
    * **backpressure** -- beyond ``max_queue_depth`` concurrently
      admitted jobs, new submissions are refused at once with a
      structured ``Busy`` error (clients retry; the server never
      builds an unbounded queue).

    Before either, a job whose payload is in the cache's memory tier
    is answered on the event loop (:meth:`WorkerPool.recall`).  Such a
    hit is never admitted: it takes no executor thread, joins no
    flight, is never refused ``Busy`` and does not raise
    ``peak_queue_depth``.  Everything else -- a memory miss, a disk
    hit, a remote fetch, a compute -- crosses to an executor thread."""

    def __init__(self, pool: WorkerPool, max_queue_depth: int = 64):
        self.pool = pool
        self.max_queue_depth = max_queue_depth
        self.metrics = pool.metrics
        self._inflight: Dict[str, asyncio.Future] = {}
        self._admitted = 0
        # Executor threads bridge the async loop to the blocking pool.
        # Over workers a thread only looks up, waits and stores, so
        # every admitted job gets one and a hit never queues behind
        # misses; inline (workers=0) the threads compute, so few.
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, max_queue_depth if pool.workers else 0),
            thread_name_prefix="serve-job")

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False)

    async def submit(self, job: object) -> Dict[str, object]:
        """Admit and run one job; returns the response dict
        (``{"ok": ..., "singleflight": ..., "result": ...}`` or a
        structured error)."""
        try:
            spec = JobSpec.from_dict(job)
            key = spec.canonical_key()
        except ReproError as exc:
            return error_body(type(exc).__name__, str(exc))
        except Exception as exc:
            # Whatever a malformed spec trips over, the client is told
            # its job was bad, not which Python exception said so.
            return error_body("ServiceError", f"bad job spec: {exc}")

        # Before single-flight and back-pressure: a memory hit needs
        # no thread and no slot.
        result = self.pool.recall(spec, key)
        if result is not None:
            return {"ok": True, "singleflight": False,
                    "result": result.to_dict()}

        existing = self._inflight.get(key)
        if existing is not None:
            # Single-flight join: ride the in-flight computation.
            self.metrics.incr("singleflight_hits")
            result = await asyncio.shield(existing)
            return {"ok": True, "singleflight": True,
                    "result": result.to_dict()}

        if self._admitted >= self.max_queue_depth:
            self.metrics.incr("rejected_busy")
            return error_body(
                "Busy",
                f"queue depth limit reached "
                f"({self.max_queue_depth} jobs in flight); retry",
                retry=True)

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._admitted += 1
        try:
            result = await loop.run_in_executor(
                self._executor, self.pool.run_job, spec, None, key)
            future.set_result(result)
        except Exception as exc:
            result = JobResult.failed(spec.kind, exc, 6, key=key)
            future.set_result(result)
        finally:
            self._admitted -= 1
            self._inflight.pop(key, None)
        return {"ok": True, "singleflight": False,
                "result": result.to_dict()}
