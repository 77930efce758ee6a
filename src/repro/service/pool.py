"""Multi-process worker pool with warm pipelines and bounded requeue.

The pool owns exactly one cache, in the parent process, in front of
its workers (an :class:`~repro.service.cache.ArtifactCache`: memory,
then disk).  A job is looked up
in the submitting thread: a hit is finished there, never crosses a
process boundary, and is answered while every worker is busy.  A
server's event loop asks first (:meth:`WorkerPool.recall`): a hit in
the memory tier is finished on the loop and crosses no thread either;
only memory is probed there, as disk or compute would stall every
connection.  A miss fans out to one of ``workers`` OS processes,
each a pure function of the spec with a *warm* pipeline (the
per-process compile memo in :mod:`repro.service.jobs`), and the thread
that waits for the job stores its payload -- never the collector
thread, so a slow store delays the job that missed and nothing else.

Each job is one record holding a :class:`concurrent.futures.Future`
(:meth:`WorkerPool.wait` is its ``result()``).  Each worker is one
process on one duplex pipe holding at most one job, so a worker that
dies forfeits exactly the job it was sent.  One collector thread owns
the workers -- it alone sends jobs, reads results, replaces the dead,
enforces per-attempt timeouts and requeues victims with exponential
backoff up to a bounded attempt budget -- and sleeps in
:func:`multiprocessing.connection.wait` on the pipes, the process
sentinels and one wake pipe, timed only by the earliest deadline: an
idle pool never wakes it.

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
import itertools
import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from multiprocessing.connection import wait as wait_ready
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError, error_body
from repro.obs.metrics import ServiceMetrics
from repro.service.cache import DEFAULT_CACHE_DIR, ArtifactCache
from repro.service.jobs import CachedJob, JobResult, JobSpec, compute_job


def _worker_main(worker_id: int, conn) -> None:
    """Worker process loop: receive ``(spec, attempts)`` on this
    worker's pipe, compute, send the result back on it.  Runs until it
    receives ``None`` or the parent's end closes."""
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        spec_dict, attempts = item
        try:
            result = compute_job(JobSpec.from_dict(spec_dict), worker_id)
        except BaseException as exc:  # never hang the parent silently
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            result = JobResult.failed(spec_dict.get("kind", "unknown"),
                                      exc, 6, worker=worker_id)
        result.attempts = attempts
        conn.send(result.to_dict())


class _Job:
    """One submitted job: its spec, its attempts so far, the
    :class:`CachedJob` that stores a computed payload, and the future
    that resolves to ``(result, job still to store it or None)``."""

    def __init__(self, spec: JobSpec, cached: CachedJob):
        self.spec = spec
        self.cached = cached
        self.attempts = 1
        self.future: Future = Future()


class _Worker:
    """One worker process, its end of the pipe, and the job it holds
    with that attempt's deadline."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.job: Optional[_Job] = None
        self.deadline: Optional[float] = None


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
                 backoff_s: float = 0.05):
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.metrics = ServiceMetrics()
        #: The pool's one cache, whatever the worker count.
        self.cache = ArtifactCache(cache_dir)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._started = False
        self._closing = False
        # Guards the backlog, the wake flag and closing; the workers
        # and the requeue list belong to the collector thread.
        self._lock = threading.Lock()
        self._ids = itertools.count()
        # job_id -> record, from submission until a wait collects it.
        self._jobs: Dict[int, _Job] = {}
        self._backlog: Deque[_Job] = deque()
        self._woken = False
        self._deferred: List[Tuple[float, _Job]] = []
        self._workers: List[_Worker] = []
        self._wake_r = self._wake_w = None
        self._collector: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started or self.workers == 0:
            self._started = True
            return self
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._workers = [self._spawn(worker_id)
                         for worker_id in range(self.workers)]
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True)
        self._collector.start()
        self._started = True
        return self

    def _spawn(self, worker_id: int) -> _Worker:
        """A fresh process on a fresh pipe: nothing sent to a dead
        worker's pipe can reach its replacement."""
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(worker_id, child),
            name=f"repro-worker-{worker_id}", daemon=True)
        proc.start()
        child.close()   # the worker holds the only copy: EOF on death
        return _Worker(proc, conn)

    def close(self) -> None:
        """Stop workers and the collector.  Pending jobs that never
        completed are failed with a shutdown error, and a worker still
        computing one is terminated at once: nobody waits for its
        result, and it writes no cache entry (the parent stores)."""
        with self._lock:
            self._closing = True
            pending = list(self._jobs.values())
            self._backlog.clear()
        for record in pending:
            self._finish(record, JobResult.failed(
                record.spec.kind, ServiceError(
                    "pool closed before the job completed")))
        if self._collector is not None:
            self._wake_w.send_bytes(b"")
            self._collector.join(timeout=2.0)
            self._collector = None
            self._wake_r.close()
            self._wake_w.close()
        for worker in self._workers:
            if worker.job is not None:
                worker.proc.terminate()
            else:
                try:
                    worker.conn.send(None)   # an idle worker exits on it
                except OSError:
                    pass
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.conn.close()
        self._workers = []
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec, key: Optional[str] = None) -> int:
        """Look the job up (under ``key``, if the caller admitted it
        under one) and hand a miss to the collector; returns its id.  A
        hit is finished before this returns and reaches no worker; in
        inline mode (workers=0) so is a miss, computed and stored
        here."""
        if self._closing:
            raise ServiceError("pool is closed")
        if not self._started:
            self.start()
        job = CachedJob(spec, self.cache, key)
        result = job.lookup()   # first: if it raises, nothing was counted
        record = _Job(spec, job)
        with self._lock:    # a job close() has not seen is not taken
            if self._closing:
                raise ServiceError("pool is closed")
            job_id = next(self._ids)
            self._jobs[job_id] = record
        self.metrics.incr("jobs_submitted")
        self.metrics.adjust_queue_depth(+1)
        if result is None and self.workers == 0:
            result = job.store(compute_job(spec))
        if result is not None:
            self._finish(record, result)
        else:
            with self._lock:
                self._backlog.append(record)
            self._wake()
        return job_id

    def recall(self, spec: JobSpec, key: str) -> Optional[JobResult]:
        """The job finished from the cache's memory tier, or None.  No
        disk, compute or queue is touched, so an event loop
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
        record = self._jobs.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id}")
        try:
            result, job = record.future.result(timeout)
        except FutureTimeout:
            raise ServiceError(
                f"timed out waiting for job {job_id}") from None
        self._jobs.pop(job_id, None)
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

    # -- completion --------------------------------------------------------

    def _wake(self) -> None:
        """Wake the collector; one byte stands for every wake-up it has
        not yet consumed."""
        with self._lock:
            if self._woken or self._closing:
                return
            self._woken = True
            self._wake_w.send_bytes(b"")

    def _finish(self, record: _Job, result: JobResult,
                computed: bool = False) -> None:
        """Resolve a job once; ``computed`` when its payload came from a
        worker and is still to be stored."""
        with self._lock:
            if record.future.done():
                return
            record.future.set_result(
                (result, record.cached if computed else None))
        self.metrics.adjust_queue_depth(-1)

    def _collect(self) -> None:
        """Collector thread: hand the backlog to idle workers, then
        sleep until a result, a death, a wake or the next deadline."""
        while True:
            now = time.monotonic()
            due = [record for when, record in self._deferred if when <= now]
            self._deferred = [(when, record) for when, record
                              in self._deferred if when > now]
            with self._lock:
                if self._closing:
                    return
                self._woken = False
                self._backlog.extend(due)
                idle = [worker for worker in self._workers
                        if worker.job is None]
                sends = [(worker, self._backlog.popleft())
                         for worker in idle[:len(self._backlog)]]
            for worker, record in sends:
                self._send(worker, record)
            deadlines = [when for when, _ in self._deferred] + [
                worker.deadline for worker in self._workers
                if worker.deadline is not None]
            timeout = None if not deadlines else \
                max(0.0, min(deadlines) - time.monotonic())
            ready = wait_ready(
                [self._wake_r] + [worker.conn for worker in self._workers]
                + [worker.proc.sentinel for worker in self._workers],
                timeout)
            if self._wake_r in ready:
                self._wake_r.recv_bytes()
            now = time.monotonic()
            for worker_id, worker in enumerate(self._workers):
                if worker.conn in ready:
                    try:
                        body = worker.conn.recv()
                    except (EOFError, OSError):
                        self._replace(worker_id)
                        continue
                    record, worker.job, worker.deadline = \
                        worker.job, None, None
                    if record is not None:
                        self._finish(record, JobResult.from_dict(body),
                                     computed=True)
                elif worker.proc.sentinel in ready:
                    self._replace(worker_id)
                elif worker.deadline is not None and worker.deadline <= now:
                    self.metrics.incr("job_timeouts")
                    self._replace(worker_id)

    def _send(self, worker: _Worker, record: _Job) -> None:
        """Give ``record`` to an idle worker (a job already failed by
        :meth:`close` is dropped).  A pipe that breaks here belongs to a
        worker that died: its sentinel reports it next."""
        if record.future.done():
            return
        worker.job = record
        if self.timeout_s is not None:
            worker.deadline = time.monotonic() + self.timeout_s
        try:
            worker.conn.send((record.spec.to_dict(), record.attempts))
        except OSError:
            pass

    def _replace(self, worker_id: int) -> None:
        """Stop a dead or overdue worker, start its replacement on a
        fresh pipe, and requeue or fail the job it held."""
        worker = self._workers[worker_id]
        self.metrics.incr("worker_crashes")
        worker.proc.terminate()
        worker.proc.join(timeout=1.0)
        worker.conn.close()
        self._workers[worker_id] = self._spawn(worker_id)
        record = worker.job
        if record is None or record.future.done():
            return
        if record.attempts >= self.max_attempts:
            self._finish(record, JobResult.failed(
                record.spec.kind, ServiceError(
                    f"worker crashed or timed out; gave up after "
                    f"{record.attempts} attempt(s)"),
                attempts=record.attempts))
            return
        delay = self.backoff_s * (2 ** (record.attempts - 1))
        record.attempts += 1
        self._deferred.append((time.monotonic() + delay, record))
        self.metrics.incr("jobs_requeued")

    # -- reporting ---------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """``/metrics``: the service counters and the cache's snapshot
        under ``cache``."""
        data = self.metrics.to_dict()
        data["workers"] = self.workers
        data["cache"] = self.cache.snapshot()
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
    hit, a compute -- crosses to an executor thread."""

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
