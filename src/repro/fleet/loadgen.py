"""Fleet launcher: real OS processes running the CLI verbs.

:class:`FleetProcess` / :func:`launch_gateway` / :func:`launch_store`
spawn ``python -m repro serve`` / ``fleet-store``, wait for
``/healthz``, scrape ``/metrics``, and shut them down (or
:meth:`~FleetProcess.kill` them hard).  The
benchmark (``bench/workloads.py``, the one load harness) and the
subprocess-level tests drive fleets through it; the module keeps the
name they import it by.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.service.client import http_json


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port that was free a moment ago (launch helpers
    bind it immediately; the race window is negligible on localhost)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


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
        """Hard stop (no goodbye, no flush)."""
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
    return FleetProcess("serve", argv, host, port) \
        .wait_ready(timeout)
