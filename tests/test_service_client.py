"""Unit tests for the retrying service client.

A scripted stdlib HTTP server plays the part of the service, so the
retry/backoff/timeout discipline is tested in isolation: 429/503 with
``Retry-After`` must be retried, 4xx must not, connection failures
must retry then surface as :class:`ServiceError`.

The retry *schedule* (exact Retry-After honoring, backoff curve,
wall-clock retry budget, circuit breaker) is tested against a fake
clock — the client's ``clock``/``sleep`` are injectable, so no test
here actually sleeps.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.client import (
    CircuitOpen, JobFailed, ServiceClient, ServiceError,
)


class FakeClock:
    """Deterministic time source recording every requested sleep."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class ScriptedServer:
    """HTTP server answering from a fixed script of responses."""

    def __init__(self, script):
        # [(status, headers, payload)]; bytes payloads go out raw.
        self.script = list(script)
        self.requests = []              # [(method, path, body)]
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _serve(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length) if length else b""
                server.requests.append(
                    (self.command, self.path, body.decode() or None))
                status, headers, payload = (
                    server.script.pop(0) if server.script
                    else (500, {}, {"error": "script exhausted"}))
                blob = payload if isinstance(payload, bytes) \
                    else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                for key, value in headers.items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(blob)

            do_GET = do_POST = _serve

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_port}"
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(10)


@pytest.fixture
def scripted():
    servers = []

    def factory(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def make_client(url, **overrides):
    kwargs = dict(timeout=10, retries=3, backoff=0.01, max_backoff=0.05)
    kwargs.update(overrides)
    return ServiceClient(url, **kwargs)


class TestRetries:
    def test_retries_through_429_with_retry_after(self, scripted):
        server = scripted([
            (429, {"Retry-After": "0"}, {"error": "busy"}),
            (429, {"Retry-After": "0"}, {"error": "busy"}),
            (200, {}, {"source": "computed", "record": {}}),
        ])
        client = make_client(server.url)
        result = client.evaluate("conv")
        assert result["source"] == "computed"
        assert len(server.requests) == 3

    def test_retries_through_503(self, scripted):
        server = scripted([
            (503, {}, {"error": "draining"}),
            (200, {}, {"status": "ok"}),
        ])
        assert make_client(server.url).healthz() == {"status": "ok"}
        assert len(server.requests) == 2

    def test_gives_up_after_retry_budget(self, scripted):
        server = scripted([(429, {"Retry-After": "0"},
                            {"error": "busy"})] * 10)
        client = make_client(server.url, retries=2)
        with pytest.raises(ServiceError) as info:
            client.healthz()
        assert info.value.status == 429
        assert len(server.requests) == 3        # initial + 2 retries

    def test_400_is_not_retried(self, scripted):
        server = scripted([(400, {}, {"error": "bad benchmark"})])
        client = make_client(server.url)
        with pytest.raises(ServiceError) as info:
            client.evaluate("nope")
        assert info.value.status == 400
        assert info.value.payload["error"] == "bad benchmark"
        assert len(server.requests) == 1

    def test_non_json_2xx_is_a_service_error(self, scripted):
        """A proxy's HTML page answering 200 surfaces as ServiceError
        with the status, not as a raw JSONDecodeError."""
        server = scripted([(200, {}, b"<html>proxy</html>")])
        with pytest.raises(ServiceError) as info:
            ServiceClient(server.url, retries=0).healthz()
        assert info.value.status == 200

    def test_connection_refused_surfaces_after_retries(self):
        client = make_client("http://127.0.0.1:9", retries=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()


class TestRetrySchedule:
    """Fake-clock tests: the exact delays the client sleeps."""

    def test_retry_after_is_honored_exactly(self, scripted):
        server = scripted([
            (429, {"Retry-After": "2.5"}, {"error": "busy"}),
            (200, {}, {"status": "ok"}),
        ])
        fake = FakeClock()
        client = make_client(server.url, backoff=0.01,
                             clock=fake.clock, sleep=fake.sleep)
        assert client.healthz() == {"status": "ok"}
        # Exactly the server's number — not max(backoff, retry_after),
        # not the client-side curve.
        assert fake.sleeps == [2.5]

    def test_backoff_curve_without_retry_after(self, scripted):
        server = scripted([(503, {}, {"error": "draining"})] * 3
                          + [(200, {}, {"status": "ok"})])
        fake = FakeClock()
        client = make_client(server.url, backoff=0.1, max_backoff=0.15,
                             clock=fake.clock, sleep=fake.sleep)
        assert client.healthz() == {"status": "ok"}
        assert fake.sleeps == [0.1, 0.15, 0.15]     # capped doubling

    def test_unparseable_retry_after_falls_back_to_backoff(
            self, scripted):
        server = scripted([
            (429, {"Retry-After": "soon"}, {"error": "busy"}),
            (200, {}, {"status": "ok"}),
        ])
        fake = FakeClock()
        client = make_client(server.url, backoff=0.25, max_backoff=1.0,
                             clock=fake.clock, sleep=fake.sleep)
        assert client.healthz() == {"status": "ok"}
        assert fake.sleeps == [0.25]

    def test_retry_budget_refuses_oversized_waits(self, scripted):
        """A Retry-After beyond the remaining wall-clock budget stops
        the retry loop immediately instead of overshooting it."""
        server = scripted([
            (429, {"Retry-After": "1"}, {"error": "busy"}),
            (429, {"Retry-After": "60"}, {"error": "busy"}),
            (200, {}, {"status": "ok"}),
        ])
        fake = FakeClock()
        client = make_client(server.url, retries=5, retry_budget=5.0,
                             clock=fake.clock, sleep=fake.sleep)
        with pytest.raises(ServiceError) as info:
            client.healthz()
        assert info.value.status == 429
        assert fake.sleeps == [1.0]       # the 60s wait never happened
        assert len(server.requests) == 2


class TestCircuitBreaker:
    def make_broken_client(self, **overrides):
        fake = FakeClock()
        kwargs = dict(timeout=1, retries=0, backoff=0.01,
                      circuit_threshold=2, circuit_reset=30.0,
                      clock=fake.clock, sleep=fake.sleep)
        kwargs.update(overrides)
        return ServiceClient("http://127.0.0.1:9", **kwargs), fake

    def test_opens_after_threshold_and_fails_fast(self):
        client, fake = self.make_broken_client()
        for _ in range(2):
            with pytest.raises(ServiceError, match="cannot reach"):
                client.healthz()
        assert client.circuit_open
        with pytest.raises(CircuitOpen, match="circuit open"):
            client.healthz()

    def test_half_open_probe_after_reset_window(self):
        client, fake = self.make_broken_client()
        for _ in range(2):
            with pytest.raises(ServiceError, match="cannot reach"):
                client.healthz()
        fake.now += 31.0                  # past the reset window
        assert not client.circuit_open
        # The probe is allowed through (and fails against a dead
        # server as a transport error, not CircuitOpen).
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_success_closes_the_circuit(self, scripted):
        server = scripted([(200, {}, {"status": "ok"})])
        client, fake = self.make_broken_client()
        for _ in range(2):
            with pytest.raises(ServiceError, match="cannot reach"):
                client.healthz()
        fake.now += 31.0
        client.base_url = server.url      # server "came back"
        assert client.healthz() == {"status": "ok"}
        assert not client.circuit_open
        assert client._consecutive_failures == 0

    def test_circuit_stops_mid_request_retries(self):
        """Retries within one request trip the breaker too: once the
        threshold is crossed the loop stops burning attempts."""
        client, fake = self.make_broken_client(retries=6)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()
        # threshold=2: two attempts, then the circuit opened and the
        # remaining four retries were skipped.
        assert client._consecutive_failures == 2
        assert client.circuit_open


class TestJobHelpers:
    def test_wait_job_polls_to_done(self, scripted):
        server = scripted([
            (200, {}, {"status": "running",
                       "progress": {"done": 0, "total": 1}}),
            (200, {}, {"status": "done",
                       "progress": {"done": 1, "total": 1},
                       "result": {"benchmarks": {}}}),
        ])
        client = make_client(server.url)
        job = client.wait_job("abc", poll_interval=0.01, timeout=10)
        assert job["status"] == "done"
        assert server.requests[0][1] == "/v1/jobs/abc"

    def test_wait_job_raises_on_failure(self, scripted):
        server = scripted([
            (200, {}, {"status": "failed", "error": "boom"}),
        ])
        client = make_client(server.url)
        with pytest.raises(JobFailed, match="boom"):
            client.wait_job("abc", poll_interval=0.01, timeout=10)

    def test_wait_job_times_out(self, scripted):
        server = scripted([(200, {}, {"status": "running"})] * 50)
        client = make_client(server.url)
        with pytest.raises(ServiceError, match="still running"):
            client.wait_job("abc", poll_interval=0.01, timeout=0.05)

    def test_sweep_returns_job_id(self, scripted):
        server = scripted([(202, {}, {"job_id": "xyz",
                                      "status": "queued"})])
        client = make_client(server.url)
        assert client.sweep(["conv"], scale=0.1) == "xyz"
        method, path, body = server.requests[0]
        assert (method, path) == ("POST", "/v1/sweep")
        assert json.loads(body) == {"names": ["conv"], "scale": 0.1}
