"""Fleet launcher and seeded open-loop load generator.

Two tools the benchmark (``bench/workloads.py``), the CI smoke job,
and ``python -m repro loadtest`` share:

* :class:`FleetProcess` / :func:`launch_gateway` / :func:`launch_store`
  -- spawn real OS processes running the CLI verbs (``serve`` /
  ``fleet-store``), wait for ``/healthz``, scrape ``/metrics``, and
  shut them down (or :meth:`~FleetProcess.kill` them hard, for outage
  drills);
* :class:`LoadGenerator` -- a seeded *open-loop* client swarm: arrival
  times are drawn up front from an exponential inter-arrival process at
  the offered rate (arrivals do not wait for completions, so the
  harness measures saturation instead of hiding it), each arrival posts
  one job from a seeded mix to a seeded target, and the report carries
  p50/p95/p99 latency, achieved throughput, and error/backpressure
  counts.

The schedule -- arrival offsets, job choice, target choice -- is a pure
function of the seed, so two runs against equivalent fleets are
request-for-request comparable.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.client import http_json


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of an
    unsorted sequence; 0.0 when empty."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port that was free a moment ago (launch helpers
    bind it immediately; the race window is negligible on localhost)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# Fleet process management
# ---------------------------------------------------------------------------


def _subprocess_env() -> Dict[str, str]:
    """The child environment, with this package's ``src`` directory on
    PYTHONPATH whatever the parent was launched with."""
    import repro
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else os.pathsep.join([src, existing])
    return env


class FleetProcess:
    """One fleet member (gateway or store) as a real OS process."""

    def __init__(self, role: str, argv: List[str], host: str,
                 port: int):
        self.role = role
        self.host = host
        self.port = port
        self.proc = subprocess.Popen(
            argv, env=_subprocess_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def wait_ready(self, timeout: float = 30.0) -> "FleetProcess":
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                out = (self.proc.stdout.read() or b"").decode(
                    "utf-8", "replace")
                raise RuntimeError(
                    f"{self.role} exited with {self.proc.returncode} "
                    f"before becoming ready:\n{out}")
            try:
                status, body = http_json("GET", self.host, self.port,
                                         "/healthz", timeout=2.0)
                if status == 200 and isinstance(body, dict) \
                        and body.get("ok"):
                    return self
            except OSError as exc:
                last = exc
            time.sleep(0.05)
        self.kill()
        raise RuntimeError(f"{self.role} on {self.host}:{self.port} "
                           f"not ready after {timeout:.0f}s: {last}")

    def metrics(self) -> Dict[str, object]:
        status, body = http_json("GET", self.host, self.port,
                                 "/metrics", timeout=10.0)
        if status != 200 or not isinstance(body, dict):
            raise RuntimeError(f"{self.role} /metrics answered "
                               f"{status}: {body!r}")
        return body

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop (falls back to terminate)."""
        try:
            http_json("POST", self.host, self.port, "/v1/shutdown",
                      body={}, timeout=5.0)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def kill(self) -> None:
        """Hard stop -- the outage drill (no goodbye, no flush)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def launch_store(cache_dir: str, host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 timeout: float = 30.0) -> FleetProcess:
    """Spawn ``python -m repro fleet-store`` and wait for /healthz."""
    port = free_port(host) if port is None else port
    argv = [sys.executable, "-m", "repro", "fleet-store",
            "--host", host, "--port", str(port),
            "--cache-dir", cache_dir]
    return FleetProcess("fleet-store", argv, host, port) \
        .wait_ready(timeout)


def launch_gateway(cache_dir: Optional[str],
                   store_url: Optional[str] = None,
                   workers: int = 1, host: str = "127.0.0.1",
                   port: Optional[int] = None,
                   max_queue_depth: int = 64,
                   timeout: float = 30.0) -> FleetProcess:
    """Spawn ``python -m repro serve`` and wait for /healthz."""
    port = free_port(host) if port is None else port
    argv = [sys.executable, "-m", "repro", "serve",
            "--host", host, "--port", str(port),
            "--workers", str(workers),
            "--max-queue-depth", str(max_queue_depth)]
    argv += ["--cache-dir", cache_dir] if cache_dir is not None \
        else ["--no-cache"]
    if store_url is not None:
        argv += ["--store", store_url]
    return FleetProcess("serve", argv, host, port) \
        .wait_ready(timeout)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


class LoadGenerator:
    """Seeded open-loop job stream against one or more gateways.

    ``targets`` are ``(host, port)`` pairs; ``jobs`` are JobSpec wire
    dicts (the mix); ``rate`` is the offered arrival rate in requests
    per second; ``total`` the number of arrivals.  ``concurrency``
    bounds the client threads -- when all are busy, arrivals queue and
    their *scheduled* time still anchors latency, which is exactly the
    open-loop property that exposes saturation.
    """

    def __init__(self, targets: Sequence[Tuple[str, int]],
                 jobs: Sequence[Dict[str, object]],
                 rate: float, total: int, seed: int = 0,
                 concurrency: int = 32, timeout_s: float = 120.0):
        if not targets:
            raise ValueError("loadgen needs at least one target")
        if not jobs:
            raise ValueError("loadgen needs at least one job")
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        self.targets = list(targets)
        self.jobs = [dict(job) for job in jobs]
        self.rate = rate
        self.total = total
        self.seed = seed
        self.concurrency = max(1, min(concurrency, total))
        self.timeout_s = timeout_s
        self.schedule = self._build_schedule()

    def _build_schedule(self) -> List[Tuple[float, int, int]]:
        """``(arrival_offset_s, target_index, job_index)`` per request,
        a pure function of the seed."""
        rnd = random.Random(f"fleet-loadgen-{self.seed}")
        offset = 0.0
        schedule = []
        for _ in range(self.total):
            offset += rnd.expovariate(self.rate)
            schedule.append((offset,
                             rnd.randrange(len(self.targets)),
                             rnd.randrange(len(self.jobs))))
        return schedule

    # -- execution ---------------------------------------------------------

    def run(self) -> Dict[str, object]:
        records: List[Optional[Dict[str, object]]] = \
            [None] * len(self.schedule)
        cursor = {"next": 0}
        lock = threading.Lock()
        start = time.perf_counter()

        def client() -> None:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(self.schedule):
                        return
                    cursor["next"] = index + 1
                offset, target_index, job_index = self.schedule[index]
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                records[index] = self._issue(offset, target_index,
                                             job_index, start)

        threads = [threading.Thread(target=client,
                                    name=f"loadgen-{i}", daemon=True)
                   for i in range(self.concurrency)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - start
        return self._report([r for r in records if r is not None],
                            duration)

    def _issue(self, offset: float, target_index: int, job_index: int,
               start: float) -> Dict[str, object]:
        host, port = self.targets[target_index]
        try:
            status, body = http_json("POST", host, port, "/v1/jobs",
                                     body=self.jobs[job_index],
                                     timeout=self.timeout_s)
        except OSError as exc:
            return {"scheduled_s": offset, "status": 0,
                    "ok": False, "transport_error": str(exc),
                    # Open-loop latency anchors at the *scheduled*
                    # arrival, so queueing delay under saturation is
                    # part of the measurement, not hidden by it.
                    "latency_s": time.perf_counter() - start - offset,
                    "target": target_index}
        record: Dict[str, object] = {
            "scheduled_s": offset, "status": status,
            "ok": bool(isinstance(body, dict) and body.get("ok")),
            "latency_s": time.perf_counter() - start - offset,
            "busy": status == 503,
            "target": target_index,
        }
        if isinstance(body, dict):
            result = body.get("result")
            if isinstance(result, dict):
                record["cache"] = result.get("cache")
            record["singleflight"] = bool(body.get("singleflight"))
        return record

    # -- reporting ---------------------------------------------------------

    def _report(self, records: List[Dict[str, object]],
                duration: float) -> Dict[str, object]:
        ok = [r for r in records if r["ok"]]
        latencies = [r["latency_s"] for r in ok]
        busy = sum(1 for r in records if r.get("busy"))
        transport = sum(1 for r in records if "transport_error" in r)
        hits = sum(1 for r in ok if r.get("cache") == "hit")
        misses = sum(1 for r in ok if r.get("cache") == "miss")
        joins = sum(1 for r in ok if r.get("singleflight"))
        return {
            "seed": self.seed,
            "targets": len(self.targets),
            "offered_rps": self.rate,
            "requests": len(records),
            "ok": len(ok),
            "rejected_busy": busy,
            "transport_errors": transport,
            "other_failures": (len(records) - len(ok) - busy
                               - transport),
            "duration_s": round(duration, 4),
            "achieved_rps": round(len(ok) / duration, 3) if duration
            else 0.0,
            "cache": {"hits": hits, "misses": misses,
                      "singleflight_joins": joins},
            "latency_ms": {
                "mean": round(1e3 * (sum(latencies) / len(latencies)),
                              3) if latencies else 0.0,
                "p50": round(1e3 * percentile(latencies, 50), 3),
                "p95": round(1e3 * percentile(latencies, 95), 3),
                "p99": round(1e3 * percentile(latencies, 99), 3),
                "max": round(1e3 * max(latencies), 3) if latencies
                else 0.0,
            },
        }
