"""Blocking HTTP client for the compile service.

Three pieces every caller of the gateway (:mod:`repro.service.http`)
shares (the blob store's client, :mod:`repro.fleet.store`, only the
first):

* :func:`http_json` -- one HTTP/JSON round trip on a fresh connection;
* :func:`with_retries` -- the one reconnect-and-retry loop, doubling
  its back-off per attempt;
* :class:`ServiceClient` -- the job-level client ``python -m repro
  submit`` / ``batch --connect`` and the CI smoke test drive.

``ping``, ``stats``, ``submit`` and ``batch`` retry transport failures
(refused or reset connection, EOF before the response): jobs are
content-addressed and single-flighted server-side, so re-sending the
same spec cannot double-execute it.  ``shutdown`` is never retried -- a
dropped connection after a shutdown request usually *is* the
acknowledgement."""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.service.jobs import JobResult, JobSpec


def http_json(method: str, host: str, port: int, path: str,
              body: Optional[object] = None,
              timeout: Optional[float] = 30.0) -> Tuple[int, object]:
    """One blocking HTTP/JSON round trip: ``(status, parsed body)``.

    Raises :class:`OSError` for transport failures (connect, timeout,
    mid-read EOF, a response that is not HTTP); callers own the retry
    policy."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
    except http.client.HTTPException as exc:
        raise ConnectionError(f"broken HTTP response: {exc!r}") from None
    finally:
        connection.close()
    if not raw:
        return response.status, None
    try:
        return response.status, json.loads(raw)
    except ValueError:
        return response.status, raw.decode("utf-8", "replace")


def with_retries(call: Callable[[], object], retries: int,
                 backoff_s: float) -> object:
    """``call()``, re-run after an :class:`OSError` up to ``retries``
    more times; the sleep before a retry starts at ``backoff_s`` and
    doubles.  The last failure propagates."""
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(backoff_s * 2 ** (attempt - 1))
        try:
            return call()
        except OSError as exc:
            last = exc
    raise last


class ServiceClient:
    """The jobs a gateway at ``host:port`` will run, as method calls.

    ``retries`` bounds how many *re*-connect attempts an idempotent
    request makes after a transport failure (0 disables retrying);
    ``retry_backoff_s`` is the initial sleep, doubled per attempt.
    """

    #: Concurrent posts of one :meth:`batch`.
    BATCH_THREADS = 8

    def __init__(self, host: str = "127.0.0.1", port: int = 7781,
                 timeout: Optional[float] = 300.0, retries: int = 2,
                 retry_backoff_s: float = 0.05):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_backoff_s = retry_backoff_s

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    # -- protocol ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[object] = None,
                 retry: bool = True) -> Dict[str, object]:
        """One request (re-sent after a transport failure when
        ``retry``); the response's JSON object, whatever its status."""
        retries = self.retries if retry else 0
        try:
            _status, response = with_retries(
                lambda: http_json(method, self.host, self.port, path,
                                  body=body, timeout=self.timeout),
                retries, self.retry_backoff_s)
        except OSError as exc:
            raise ServiceError(
                f"service connection to {self.host}:{self.port} failed "
                f"after {retries + 1} attempt(s): {exc}") from None
        if not isinstance(response, dict):
            raise ServiceError(
                f"malformed service response: {response!r}")
        return response

    @staticmethod
    def _checked(response: Dict[str, object],
                 needs: str = "ok") -> Dict[str, object]:
        """``response``, or the :class:`ServiceError` it describes when
        it lacks what the caller ``needs``."""
        if not response.get(needs):
            error = response.get("error") or {}
            raise ServiceError(
                f"service error [{error.get('type', 'unknown')}]: "
                f"{error.get('message', 'no message')}")
        return response

    # -- operations --------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self._checked(self._request("GET", "/healthz"))

    def stats(self) -> Dict[str, object]:
        return self._checked(self._request("GET", "/metrics"))

    def shutdown(self) -> Dict[str, object]:
        return self._checked(self._request("POST", "/v1/shutdown", {},
                                           retry=False))

    def submit(self, job: Union[JobSpec, Dict[str, object]]) -> JobResult:
        """Run one job on the server; returns its :class:`JobResult`
        (which may itself carry ``ok=False`` for job-level failures).
        A job the server refused to admit is a :class:`ServiceError`."""
        payload = job.to_dict() if isinstance(job, JobSpec) else job
        response = self._request("POST", "/v1/jobs", payload)
        return JobResult.from_dict(
            self._checked(response, needs="result")["result"])

    def batch(self, jobs: Sequence[Union[JobSpec, Dict[str, object]]]
              ) -> List[JobResult]:
        """Run many jobs, :data:`BATCH_THREADS` at a time; results in
        submission order."""
        with ThreadPoolExecutor(max_workers=self.BATCH_THREADS) as posts:
            return list(posts.map(self.submit, jobs))


def wait_for_server(host: str, port: int, timeout: float = 10.0,
                    interval: float = 0.05) -> ServiceClient:
    """Poll until a server accepts connections and answers a ping
    (startup helper for the CLI, tests, and the CI smoke job)."""
    deadline = time.monotonic() + timeout
    client = ServiceClient(host, port, timeout=timeout)
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            # This loop is the retry: each probe is one attempt.
            client._checked(client._request("GET", "/healthz",
                                            retry=False))
            return client
        except ServiceError as exc:
            last_error = exc
            time.sleep(interval)
    raise ServiceError(
        f"no service at {host}:{port} after {timeout:.1f}s: {last_error}")
