"""Metrics derived from a simulated run or a recorded trace.

Two tiers:

* :func:`utilization_summary` needs only the machine's always-on busy
  aggregates (kept by :class:`~repro.earth.machine.Machine` whether or
  not tracing is enabled): per-node EU/SU busy time and utilization.
* :class:`TraceMetrics` needs a :class:`~repro.obs.trace.Tracer` and
  adds the distributions the aggregates cannot express: SU queue-length
  and slot-wait-time histograms, a critical-path estimate, and the
  per-callsite remote-operation attribution table (which SIMPLE
  statement issued which remote ops -- the dynamic analogue of the
  paper's possible-placement tuples).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import Tracer


def utilization_summary(eu_busy_ns: Sequence[float],
                        su_busy_ns: Sequence[float],
                        elapsed_ns: float) -> Dict[str, object]:
    """Per-node EU/SU utilization over one run.

    ``elapsed_ns`` is the run's finish time; a fiber may run marginally
    past it (it executes ahead of the event clock), so the denominator
    is clamped to the largest busy total to keep every ratio in [0, 1].
    """
    denom = max([elapsed_ns, 1e-9, *eu_busy_ns, *su_busy_ns])
    return {
        "elapsed_ns": elapsed_ns,
        "eu_busy_ns": [round(b, 3) for b in eu_busy_ns],
        "su_busy_ns": [round(b, 3) for b in su_busy_ns],
        "eu_utilization": [round(b / denom, 6) for b in eu_busy_ns],
        "su_utilization": [round(b / denom, 6) for b in su_busy_ns],
    }


def _wait_bucket(wait_ns: float) -> str:
    """Log-ish bucket label for a wait-time histogram."""
    if wait_ns <= 0:
        return "0"
    bounds = (1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
              1_000_000)
    for bound in bounds:
        if wait_ns <= bound:
            return f"<={bound}ns"
    return f">{bounds[-1]}ns"


class LatencyHistogram:
    """Log-bucketed wall-clock latency histogram (seconds).

    Service-layer jobs span five orders of magnitude (sub-millisecond
    cache hits to multi-second cold compiles), so fixed-width buckets
    would waste resolution; the bucket bounds go up by roughly 3x per
    step instead."""

    BOUNDS_S = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
                30.0)

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    @staticmethod
    def bucket(seconds: float) -> str:
        for bound in LatencyHistogram.BOUNDS_S:
            if seconds <= bound:
                return f"<={bound:g}s"
        return f">{LatencyHistogram.BOUNDS_S[-1]:g}s"

    def observe(self, seconds: float) -> None:
        label = self.bucket(seconds)
        self.counts[label] = self.counts.get(label, 0) + 1
        self.count += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        labels = [f"<={b:g}s" for b in self.BOUNDS_S]
        labels.append(f">{self.BOUNDS_S[-1]:g}s")
        return {"count": self.count, "mean_s": round(self.mean_s, 6),
                "max_s": round(self.max_s, 6),
                "buckets": {label: self.counts[label]
                            for label in labels if label in self.counts}}


class ServiceMetrics:
    """Counters and latency distributions of the compile service
    (:mod:`repro.service`): cache hit rate, queue depth, worker
    utilization inputs, and per-job latency histograms.

    Thread-safe: the server's asyncio loop, the pool's collector
    thread, and worker bookkeeping all increment concurrently."""

    COUNTERS = ("jobs_submitted", "jobs_completed", "jobs_failed",
                "cache_hits", "cache_misses", "singleflight_hits",
                "jobs_requeued", "worker_crashes", "job_timeouts",
                "rejected_busy",
                # HTTP gateway traffic (repro.fleet).  What the cache did
                # is counted by the pool's one cache and joins these in
                # ``WorkerPool.metrics_snapshot``.
                "http_requests", "http_errors")

    def __init__(self):
        self._lock = threading.Lock()
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.queue_depth = 0
        self.peak_queue_depth = 0
        self.busy_s = 0.0          # summed wall time spent inside jobs
        self.latency = LatencyHistogram()
        self.hit_latency = LatencyHistogram()
        self.miss_latency = LatencyHistogram()

    def incr(self, name: str) -> None:
        if name not in self.COUNTERS:
            raise ValueError(f"unknown service counter {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def adjust_queue_depth(self, delta: int) -> None:
        with self._lock:
            self.queue_depth += delta
            self.peak_queue_depth = max(self.peak_queue_depth,
                                        self.queue_depth)

    def observe_job(self, seconds: float, cache_hit: Optional[bool],
                    ok: bool = True) -> None:
        with self._lock:
            self.jobs_completed += 1
            if not ok:
                self.jobs_failed += 1
            self.busy_s += seconds
            self.latency.observe(seconds)
            if cache_hit is True:
                self.cache_hits += 1
                self.hit_latency.observe(seconds)
            elif cache_hit is False:
                self.cache_misses += 1
                self.miss_latency.observe(seconds)

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                name: getattr(self, name) for name in self.COUNTERS}
            payload["queue_depth"] = self.queue_depth
            payload["peak_queue_depth"] = self.peak_queue_depth
            payload["cache_hit_rate"] = round(self.cache_hit_rate, 6)
            payload["busy_s"] = round(self.busy_s, 6)
            payload["latency"] = self.latency.to_dict()
            payload["hit_latency"] = self.hit_latency.to_dict()
            payload["miss_latency"] = self.miss_latency.to_dict()
            return payload


class TraceMetrics:
    """Everything derivable from one recorded trace."""

    def __init__(self, tracer: Tracer, num_nodes: int,
                 elapsed_ns: Optional[float] = None):
        self.tracer = tracer
        self.num_nodes = num_nodes
        events = tracer.sorted_events()
        self._eu_spans = [e for e in events if e["kind"] == "eu_span"]
        self._su_spans = [e for e in events if e["kind"] == "su_span"]
        if elapsed_ns is None:
            elapsed_ns = max(
                [e["ts"] + e.get("dur", 0.0) for e in events] or [0.0])
        self.elapsed_ns = elapsed_ns

    # -- utilization -------------------------------------------------------------

    def utilization(self) -> Dict[str, object]:
        eu = [0.0] * self.num_nodes
        su = [0.0] * self.num_nodes
        for span in self._eu_spans:
            eu[span["node"]] += span["dur"]
        for span in self._su_spans:
            su[span["node"]] += span["dur"]
        return utilization_summary(eu, su, self.elapsed_ns)

    # -- SU queue behaviour ------------------------------------------------------

    def su_queue_length_histogram(self) -> Dict[int, int]:
        """How many requests were queued (incl. the arriving one) at
        each request arrival, over all SUs: ``{length: arrivals}``.

        Reconstructed from ``su_span`` events: a request arrives at
        ``ts - queue_wait`` and leaves the queue at ``ts``.
        """
        marks: List[Tuple[float, int, int]] = []
        for span in self._su_spans:
            node = span["node"]
            arrival = span["ts"] - span["queue_wait"]
            marks.append((arrival, 0, node))      # 0: arrival (+1)
            marks.append((span["ts"], 1, node))   # 1: service start (-1)
        marks.sort()
        depth = [0] * self.num_nodes
        histogram: Dict[int, int] = {}
        for _ts, what, node in marks:
            if what == 0:
                depth[node] += 1
                histogram[depth[node]] = histogram.get(depth[node], 0) + 1
            else:
                depth[node] -= 1
        return dict(sorted(histogram.items()))

    def su_wait_histogram(self) -> Dict[str, int]:
        """Slot-wait at the SU: time each request spent queued before
        service, bucketed."""
        histogram: Dict[str, int] = {}
        for span in self._su_spans:
            bucket = _wait_bucket(span["queue_wait"])
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return histogram

    # -- fiber blocking ----------------------------------------------------------

    def slot_wait_histogram(self) -> Dict[str, int]:
        """How long blocked fibers waited for their slot (block ->
        resume), bucketed."""
        histogram: Dict[str, int] = {}
        for wait in self.slot_waits():
            bucket = _wait_bucket(wait)
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return histogram

    def slot_waits(self) -> List[float]:
        waits: List[float] = []
        blocked_at: Dict[int, float] = {}
        for event in self.tracer.sorted_events():
            kind = event["kind"]
            if kind == "fiber_block":
                blocked_at[event["fiber"]] = event["ts"]
            elif kind == "fiber_resume":
                start = blocked_at.pop(event["fiber"], None)
                if start is not None:
                    waits.append(event["ts"] - start)
        return waits

    # -- critical path -----------------------------------------------------------

    def critical_path_estimate(self) -> Dict[str, float]:
        """Lower-bound decomposition of the elapsed time.

        ``max_eu_busy_ns`` / ``max_su_busy_ns`` are the busiest single
        unit -- elapsed time can never drop below the busiest unit, so
        ``bound_ns`` (their max) estimates the critical path through the
        resources, and ``parallelism`` (total EU work / elapsed) says
        how many EUs were effectively in use.
        """
        eu = [0.0] * self.num_nodes
        su = [0.0] * self.num_nodes
        for span in self._eu_spans:
            eu[span["node"]] += span["dur"]
        for span in self._su_spans:
            su[span["node"]] += span["dur"]
        max_eu = max(eu) if eu else 0.0
        max_su = max(su) if su else 0.0
        elapsed = max(self.elapsed_ns, 1e-9)
        return {
            "elapsed_ns": self.elapsed_ns,
            "max_eu_busy_ns": max_eu,
            "max_su_busy_ns": max_su,
            "bound_ns": max(max_eu, max_su),
            "slack_ns": max(0.0, elapsed - max(max_eu, max_su)),
            "parallelism": sum(eu) / elapsed,
        }

    # -- callsite attribution ----------------------------------------------------

    def callsite_attribution(self) -> List[Dict[str, object]]:
        """Remote operations grouped by issuing SIMPLE statement.

        One row per ``(function, label)`` site with per-op counts and
        total words moved -- the dynamic counterpart of the placement
        tuples ``--show tuples`` prints statically.
        """
        rows: Dict[Tuple[str, int], Dict[str, object]] = {}
        for event in self.tracer.events:
            if event["kind"] != "issue" or event["site"] is None:
                continue
            function, label = event["site"]
            row = rows.get((function, label))
            if row is None:
                row = {"function": function, "label": label,
                       "read": 0, "write": 0, "blkmov": 0,
                       "ops": 0, "words": 0}
                rows[(function, label)] = row
            op = event["op"]
            if op in ("read", "write", "blkmov"):
                row[op] += 1
            row["ops"] += 1
            row["words"] += event["words"]
        ordered = sorted(rows.values(),
                         key=lambda r: (-r["ops"], r["function"],
                                        r["label"]))
        return ordered

    # -- aggregation -------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": len(self.tracer),
            "dropped_events": self.tracer.dropped,
            "utilization": self.utilization(),
            "su_queue_length_histogram": self.su_queue_length_histogram(),
            "su_wait_histogram": self.su_wait_histogram(),
            "slot_wait_histogram": self.slot_wait_histogram(),
            "critical_path": self.critical_path_estimate(),
            "callsites": self.callsite_attribution(),
        }

    def format_text(self, max_sites: int = 12) -> str:
        util = self.utilization()
        path = self.critical_path_estimate()
        lines = ["== trace metrics",
                 f"  events={len(self.tracer)} "
                 f"dropped={self.tracer.dropped} "
                 f"elapsed={self.elapsed_ns / 1e6:.3f}ms"]
        for node in range(self.num_nodes):
            lines.append(
                f"  node{node}: EU {100 * util['eu_utilization'][node]:6.2f}%"
                f"  SU {100 * util['su_utilization'][node]:6.2f}%")
        lines.append(
            f"  critical-path bound = {path['bound_ns'] / 1e6:.3f}ms "
            f"(parallelism {path['parallelism']:.2f})")
        queue = self.su_queue_length_histogram()
        if queue:
            text = ", ".join(f"{k}:{v}" for k, v in queue.items())
            lines.append(f"  SU queue lengths at arrival: {text}")
        sites = self.callsite_attribution()
        if sites:
            lines.append("  remote ops by callsite "
                         "(function@statement  r/w/b  words):")
            for row in sites[:max_sites]:
                lines.append(
                    f"    {row['function']}@S{row['label']:<5} "
                    f"{row['read']:>6}/{row['write']}/{row['blkmov']}"
                    f"  {row['words']}")
            if len(sites) > max_sites:
                lines.append(f"    ... {len(sites) - max_sites} more sites")
        return "\n".join(lines)
