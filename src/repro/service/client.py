"""Python client for the evaluation service.

Synchronous, over :func:`repro.service.http.send_request` (which
sends the caller's trace context), with the retry discipline the
server's backpressure contract expects:

- 429/503 responses retry with exponential backoff; when the server
  sends ``Retry-After`` the client honors it **exactly** (the server
  knows its drain/queue state better than any client-side curve).
- Connection errors and timeouts retry on the backoff curve, bounded
  by a wall-clock **retry budget** (``retry_budget`` seconds across
  one logical request) in addition to the attempt count.
- Repeated transport failures open a **circuit breaker**: for
  ``circuit_reset`` seconds every call fails fast with
  :class:`CircuitOpen` instead of hammering a dead server; the first
  call after the window is the half-open probe that closes the
  circuit on success.
- 4xx client errors are never retried.
- A 2xx answer that is not JSON is a :class:`ServiceError` too.

The clock and sleep functions are injectable so the retry schedule is
unit-testable against a fake clock (no real sleeping in tests).

>>> client = ServiceClient("http://127.0.0.1:8765")
>>> result = client.evaluate("conv", scale=0.5)
>>> job_id = client.sweep(["conv", "fft"], scale=0.5)
>>> job = client.wait_job(job_id)
"""

import json
import time

from repro.service.http import HTTPStatusError, TransportError, send_request

#: Statuses worth retrying — the server is alive but shedding load.
RETRYABLE_STATUSES = (429, 503)


class ServiceError(Exception):
    """Terminal request failure (after retries, if any applied)."""

    def __init__(self, message, status=None, payload=None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobFailed(ServiceError):
    """A sweep job finished in the ``failed`` state."""


class CircuitOpen(ServiceError):
    """Failing fast: the server has been unreachable too many times."""


class ServiceClient:
    """Thin HTTP client with retry/backoff/budget/circuit-breaker.

    *retries* caps attempts per request; *retry_budget* caps the total
    seconds spent sleeping between them (``None`` = attempts only).
    *circuit_threshold* consecutive transport failures open the
    circuit for *circuit_reset* seconds.  *clock*/*sleep* exist for
    tests (fake time).
    """

    def __init__(self, base_url, timeout=120.0, retries=4,
                 backoff=0.25, max_backoff=4.0, retry_budget=None,
                 circuit_threshold=8, circuit_reset=30.0,
                 clock=time.monotonic, sleep=time.sleep):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.retry_budget = retry_budget
        self.circuit_threshold = circuit_threshold
        self.circuit_reset = circuit_reset
        self.clock = clock
        self.sleep = sleep
        self._consecutive_failures = 0
        self._circuit_open_until = None

    # -- circuit breaker -----------------------------------------------

    @property
    def circuit_open(self):
        """True while calls would fail fast (before the probe window)."""
        return self._circuit_open_until is not None \
            and self.clock() < self._circuit_open_until

    def _check_circuit(self, url):
        if self.circuit_open:
            remaining = self._circuit_open_until - self.clock()
            raise CircuitOpen(
                f"circuit open for {url} "
                f"({self._consecutive_failures} consecutive transport "
                f"failures; retry in {remaining:.1f}s)")

    def _record_transport_failure(self):
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.circuit_threshold:
            self._circuit_open_until = self.clock() + self.circuit_reset

    def _record_success(self):
        self._consecutive_failures = 0
        self._circuit_open_until = None

    # -- transport -----------------------------------------------------

    def _retry_delay(self, attempt, retry_after=None):
        """Seconds to wait before retry *attempt* (0-based).

        A parseable ``Retry-After`` is authoritative — the server is
        telling us when capacity frees up; substituting a larger
        client-side backoff would just waste that slot.
        """
        if retry_after is not None:
            try:
                return max(0.0, float(retry_after))
            except ValueError:
                pass
        return min(self.max_backoff, self.backoff * (2 ** attempt))

    def _request(self, method, path, body=None):
        url = self.base_url + path
        self._check_circuit(url)
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        budget_left = self.retry_budget
        for attempt in range(self.retries + 1):
            try:
                status, _headers, blob = send_request(
                    method, url, data, headers, timeout=self.timeout)
            except HTTPStatusError as exc:
                # Any HTTP response means the transport works.
                self._record_success()
                try:
                    payload = json.loads(exc.body)
                except ValueError:
                    payload = {}
                error = ServiceError(payload.get("error", str(exc)),
                                     status=exc.status, payload=payload)
                retry = exc.status in RETRYABLE_STATUSES
                delay = self._retry_delay(
                    attempt, exc.headers.get("Retry-After"))
            except TransportError as exc:
                self._record_transport_failure()
                error = ServiceError(f"cannot reach {url}: {exc}")
                retry = not self.circuit_open
                delay = self._retry_delay(attempt)
            else:
                self._record_success()
                try:
                    return json.loads(blob)
                except ValueError:
                    raise ServiceError(f"non-JSON answer from {url}",
                                       status=status) from None
            if not retry or attempt == self.retries \
                    or (budget_left is not None and delay > budget_left):
                raise error
            if budget_left is not None:
                budget_left -= delay
            self.sleep(delay)

    # -- API surface ---------------------------------------------------

    def evaluate(self, benchmark, cores=None, subsets=None, scale=1.0,
                 max_invocations=8, with_amdahl=True):
        """Evaluate one benchmark; returns the full response dict
        (``record``, ``source``, ``key``, ``seconds``)."""
        body = {"benchmark": benchmark, "scale": scale,
                "max_invocations": max_invocations,
                "with_amdahl": with_amdahl}
        if cores is not None:
            body["cores"] = list(cores)
        if subsets is not None:
            body["subsets"] = [list(s) for s in subsets]
        return self._request("POST", "/v1/evaluate", body)

    def sweep(self, names=None, **params):
        """Submit an async sweep job; returns its job id."""
        body = dict(params)
        if names is not None:
            body["names"] = list(names)
        return self._request("POST", "/v1/sweep", body)["job_id"]

    def job(self, job_id):
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id, poll_interval=0.25, timeout=600.0):
        """Poll until a job leaves the active states; returns it.

        Raises :class:`JobFailed` on a failed job and
        :class:`ServiceError` on timeout.
        """
        deadline = self.clock() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] == "done":
                return job
            if job["status"] == "failed":
                raise JobFailed(
                    job.get("error", "job failed"), payload=job)
            if self.clock() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['status']} after "
                    f"{timeout}s", payload=job)
            self.sleep(poll_interval)

    def healthz(self):
        return self._request("GET", "/v1/healthz")

    def metrics(self):
        return self._request("GET", "/v1/metrics")

    def benchmarks(self):
        return self._request("GET", "/v1/benchmarks")["benchmarks"]
