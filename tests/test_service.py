"""End-to-end tests for the evaluation service (``repro.service``).

The service runs in a background thread on an ephemeral port and is
exercised over real HTTP with the retrying client.  Engine-dependent
tests use the true evaluator at tiny scale; concurrency-mechanics
tests (backpressure, coalescing, drain) use an event-gated stub so
their interleavings are deterministic.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.obs import get_flight_recorder, get_registry, set_blackbox_dir
from repro.resilience import EvaluationTimeout
from repro.resilience.faultinject import ENV_VAR, reset_plan
from repro.service import (
    EvaluationService, ServiceConfig, ServiceClient, ServiceError,
)
from repro.service.http import Router
from repro.service.metrics import LatencyHistogram
from repro.service.workers import EvaluationPool

#: Tiny-but-real evaluation parameters shared with the CLI-parity
#: checks (mirrors the sweep-cache test configuration).
EVAL_KW = dict(scale=0.1, max_invocations=2, with_amdahl=False)


def stub_payload(name):
    """A syntactically record-shaped payload for stub evaluators."""
    return {"suite": "stub", "category": "regular",
            "baseline": {}, "oracle": {}, "amdahl": {},
            "benchmark": name}


class StubEvaluator:
    """Callable evaluator with a release gate and a call counter."""

    def __init__(self, gated=False):
        self.calls = []
        self.release = threading.Event()
        if not gated:
            self.release.set()

    def __call__(self, task):
        self.calls.append(task["name"])
        assert self.release.wait(20), "stub evaluator never released"
        return stub_payload(task["name"]), 0.0


@contextmanager
def running_service(config=None, evaluator=None):
    """Run a service on its own event loop in a background thread."""
    if config is None:
        config = ServiceConfig(port=0, workers=2, pool_mode="thread",
                               use_cache=False)
    service = EvaluationService(config, evaluator=evaluator)
    ready = threading.Event()
    failure = []

    def runner():
        import asyncio

        async def go():
            await service.start()
            ready.set()
            await service.wait_stopped()
            await service.shutdown()

        try:
            asyncio.run(go())
        except BaseException as exc:   # surface crashes in the test
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(30), "service failed to start"
    if failure:
        raise failure[0]
    client = ServiceClient(f"http://127.0.0.1:{service.port}",
                           timeout=60, retries=0)
    try:
        yield service, client
    finally:
        service.request_stop_threadsafe()
        thread.join(30)
        assert not thread.is_alive(), "service failed to shut down"
        if failure:
            raise failure[0]


def post_raw(url, body):
    """POST without the client's retry layer; (status, headers, json)."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read().decode()))
    except urllib.error.HTTPError as exc:
        return (exc.code, dict(exc.headers),
                json.loads(exc.read().decode()))


class TestEndpoints:
    def test_healthz_and_benchmarks(self):
        with running_service(evaluator=StubEvaluator()) as (_, client):
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert health["pool"]["mode"] == "thread"
            assert health["pool"]["restarts"] == 0
            assert health["pool"]["degraded"] is False
            suite = client.benchmarks()
            assert "conv" in suite and "181.mcf" in suite
            assert suite["conv"]["category"] == "regular"

    def test_evaluate_validation_errors(self):
        with running_service(evaluator=StubEvaluator()) as (service,
                                                            client):
            base = f"http://127.0.0.1:{service.port}/v1/evaluate"
            status, _, body = post_raw(base, {})
            assert status == 400 and "benchmark" in body["error"]
            status, _, body = post_raw(base, {"benchmark": "nope"})
            assert status == 400 and "unknown benchmarks" in body["error"]
            status, _, body = post_raw(
                base, {"benchmark": "conv", "cores": ["Z80"]})
            assert status == 400 and "unknown core" in body["error"]
            status, _, body = post_raw(
                base, {"benchmark": "conv", "subsets": [["warp"]]})
            assert status == 400 and "unknown BSAs" in body["error"]
            status, _, body = post_raw(
                base, {"benchmark": "conv", "scale": -1})
            assert status == 400

    def test_arbitration_field_refused_null_keeps_key(self):
        """A non-null ``arbitration`` (model arbitration was removed)
        is a 400 naming the removal on every evaluating endpoint, not
        a silently ignored field; absent or null keeps the historical
        cache key."""
        from repro.dse.cache import cache_key
        spec = {"bounds": {}, "max_error": 0.1}
        with running_service(evaluator=StubEvaluator()) as (service,
                                                            client):
            root = f"http://127.0.0.1:{service.port}/v1"
            for path, body in (("evaluate", {"benchmark": "conv"}),
                               ("sweep", {"names": ["conv"]}),
                               ("explore", {"benchmarks": ["conv"]})):
                status, _, reply = post_raw(
                    f"{root}/{path}", dict(body, arbitration=spec))
                assert status == 400, path
                assert "'arbitration' was removed" in reply["error"]
            request = dict(benchmark="conv", cores=["IO2"],
                           subsets=[[]], **EVAL_KW)
            keys = {post_raw(f"{root}/evaluate", body)[2]["key"]
                    for body in (request,
                                 dict(request, arbitration=None))}
        assert keys == {cache_key("conv", 0.1, ("IO2",), ((),), 2,
                                  False)}

    def test_unknown_route_and_job(self):
        with running_service(evaluator=StubEvaluator()) as (_, client):
            with pytest.raises(ServiceError) as info:
                client.job("doesnotexist")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client._request("GET", "/nope")
            assert info.value.status == 404

    def test_method_not_allowed(self):
        with running_service(evaluator=StubEvaluator()) as (service, _):
            status, headers, _ = post_raw(
                f"http://127.0.0.1:{service.port}/v1/healthz", {})
            assert status == 405
            assert "GET" in headers.get("Allow", "")


class TestCliParity:
    """/v1/evaluate must produce byte-identical records to the CLI
    path, and its cache entries must be warm hits for `repro sweep`."""

    def test_record_matches_cli_path(self):
        from repro.dse.sweep import (
            evaluate_one_benchmark, record_to_json,
        )
        reference = record_to_json(
            evaluate_one_benchmark("conv", **EVAL_KW))
        with running_service() as (_, client):
            response = client.evaluate("conv", **EVAL_KW)
        assert response["source"] == "computed"
        assert json.dumps(response["record"], sort_keys=True) \
            == json.dumps(reference, sort_keys=True)

    def test_eight_concurrent_requests_coalesce_and_match(
            self, tmp_path):
        """Acceptance: >= 8 concurrent evaluates, byte-identical
        records, identical requests collapsed to one computation."""
        from repro.dse.sweep import (
            evaluate_one_benchmark, record_to_json,
        )
        references = {
            name: json.dumps(
                record_to_json(evaluate_one_benchmark(name, **EVAL_KW)),
                sort_keys=True)
            for name in ("conv", "fft")
        }
        config = ServiceConfig(port=0, workers=2, pool_mode="thread",
                               max_pending=8, cache_dir=tmp_path,
                               use_cache=True)
        with running_service(config) as (_, client):
            names = ["conv", "fft"] * 4          # 8 concurrent requests
            with ThreadPoolExecutor(len(names)) as pool:
                responses = list(pool.map(
                    lambda n: client.evaluate(n, **EVAL_KW), names))
            metrics = client.metrics()
        for name, response in zip(names, responses):
            assert json.dumps(response["record"], sort_keys=True) \
                == references[name]
        # Two distinct keys -> exactly two engine evaluations; every
        # other request was coalesced into an in-flight computation
        # or served from the cache it had just filled.
        assert metrics["computations_total"] == 2
        assert metrics["rejected_total"] == 0
        sources = {r["source"] for r in responses}
        assert sources <= {"computed", "coalesced", "cache"}

    def test_service_cache_is_warm_for_cli_sweep(self, tmp_path):
        from repro.dse import run_sweep
        config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                               cache_dir=tmp_path, use_cache=True)
        with running_service(config) as (_, client):
            response = client.evaluate("conv", **EVAL_KW)
            assert response["source"] == "computed"
        sweep = run_sweep(names=["conv"], cache_dir=tmp_path, **EVAL_KW)
        assert sweep.stats.hits == 1
        assert sweep.stats.misses == 0


class TestBackpressure:
    def test_429_with_retry_after_when_slots_full(self):
        stub = StubEvaluator(gated=True)
        config = ServiceConfig(port=0, workers=2, pool_mode="thread",
                               max_pending=1, use_cache=False)
        with running_service(config, evaluator=stub) as (service,
                                                         client):
            url = f"http://127.0.0.1:{service.port}/v1/evaluate"
            with ThreadPoolExecutor(1) as pool:
                blocked = pool.submit(post_raw, url,
                                      {"benchmark": "conv"})
                # Wait until the first request owns the only slot.
                deadline = time.monotonic() + 10
                while not stub.calls:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                status, headers, body = post_raw(
                    url, {"benchmark": "fft"})
                assert status == 429
                assert headers.get("Retry-After") == "1"
                assert "compute slots busy" in body["error"]
                stub.release.set()
                status, _, body = blocked.result(timeout=20)
            assert status == 200
            assert body["source"] == "computed"
            metrics = client.metrics()
            assert metrics["rejected_total"] == 1
            assert metrics["computations_total"] == 1

    def test_client_retries_through_429(self):
        stub = StubEvaluator(gated=True)
        config = ServiceConfig(port=0, workers=2, pool_mode="thread",
                               max_pending=1, use_cache=False)
        with running_service(config, evaluator=stub) as (service, _):
            retrying = ServiceClient(
                f"http://127.0.0.1:{service.port}",
                timeout=30, retries=8, backoff=0.05, max_backoff=0.1)
            with ThreadPoolExecutor(2) as pool:
                blocked = pool.submit(retrying.evaluate, "conv")
                while not stub.calls:
                    time.sleep(0.01)
                # The second request hits a full queue and gets 429s;
                # releasing the slot shortly lets its retry loop land
                # a success instead of surfacing the rejection.
                second = pool.submit(retrying.evaluate, "fft")
                threading.Timer(0.3, stub.release.set).start()
                assert blocked.result(timeout=30)["source"] == "computed"
                assert second.result(timeout=30)["source"] == "computed"


class TestCoalescing:
    def test_identical_requests_share_one_computation(self):
        stub = StubEvaluator(gated=True)
        config = ServiceConfig(port=0, workers=2, pool_mode="thread",
                               max_pending=4, use_cache=False)
        with running_service(config, evaluator=stub) as (_, client):
            with ThreadPoolExecutor(2) as pool:
                first = pool.submit(client.evaluate, "conv")
                # The leader is computing once the stub records it.
                while not stub.calls:
                    time.sleep(0.01)
                second = pool.submit(client.evaluate, "conv")
                # The follower has joined once the coalesced counter
                # ticks; only then release the stub.
                deadline = time.monotonic() + 10
                while client.metrics()["coalesced_total"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                stub.release.set()
                results = {first.result(timeout=20)["source"],
                           second.result(timeout=20)["source"]}
            assert results == {"computed", "coalesced"}
            assert stub.calls == ["conv"]
            assert client.metrics()["computations_total"] == 1

    def test_different_params_do_not_coalesce(self):
        stub = StubEvaluator()
        with running_service(evaluator=stub) as (_, client):
            client.evaluate("conv", scale=0.1)
            client.evaluate("conv", scale=0.2)
            assert client.metrics()["computations_total"] == 2


class TestCacheBehavior:
    def test_second_request_is_cache_hit(self, tmp_path):
        stub = StubEvaluator()
        config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                               cache_dir=tmp_path, use_cache=True)
        with running_service(config, evaluator=stub) as (_, client):
            first = client.evaluate("conv", **EVAL_KW)
            second = client.evaluate("conv", **EVAL_KW)
            assert first["source"] == "computed"
            assert second["source"] == "cache"
            assert second["record"] == first["record"]
            assert stub.calls == ["conv"]
            metrics = client.metrics()
            assert metrics["cache"]["hits"] == 1
            assert metrics["cache"]["hit_rate"] == 0.5

    def test_legacy_engine_key_is_ignored(self, tmp_path):
        # Bodies written for older servers may still name a timing
        # engine; the key is ignored like any other unknown key.
        stub = StubEvaluator()
        config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                               cache_dir=tmp_path, use_cache=True)
        with running_service(config, evaluator=stub) as (service, _):
            url = f"http://127.0.0.1:{service.port}/v1/evaluate"
            body = dict(EVAL_KW, benchmark="conv")
            status, _, plain = post_raw(url, body)
            legacy_status, _, legacy = post_raw(
                url, dict(body, engine="object"))
            assert status == legacy_status == 200
            assert legacy["key"] == plain["key"]
            assert legacy["record"] == plain["record"]
            assert legacy["source"] == "cache"
            assert stub.calls == ["conv"]


class TestSweepJobs:
    def test_job_roundtrip(self):
        stub = StubEvaluator()
        with running_service(evaluator=stub) as (_, client):
            job_id = client.sweep(["conv", "fft"], **EVAL_KW)
            job = client.wait_job(job_id, poll_interval=0.05,
                                  timeout=30)
            assert job["status"] == "done"
            assert job["progress"] == {"done": 2, "total": 2}
            assert sorted(job["result"]["benchmarks"]) == ["conv",
                                                           "fft"]
            assert job["result"]["sources"]["computed"] == 2
            assert sorted(stub.calls) == ["conv", "fft"]

    def test_job_names_validated(self):
        with running_service(evaluator=StubEvaluator()) as (service, _):
            status, _, body = post_raw(
                f"http://127.0.0.1:{service.port}/v1/sweep",
                {"names": ["conv", "bogus"]})
            assert status == 400
            assert "unknown benchmarks" in body["error"]

    def test_job_contains_per_benchmark_failures(self):
        """One broken benchmark lands in ``job.failures``; the rest of
        the sweep completes and the job still reports ``done``."""

        def evaluator(task):
            if task["name"] == "fft":
                raise ValueError("injected engine failure")
            return stub_payload(task["name"]), 0.0

        with running_service(evaluator=evaluator) as (_, client):
            job_id = client.sweep(["conv", "fft", "mm"], **EVAL_KW)
            job = client.wait_job(job_id, poll_interval=0.05,
                                  timeout=30)
            assert job["status"] == "done"
            assert job["progress"] == {"done": 3, "total": 3}
            assert sorted(job["result"]["benchmarks"]) == ["conv", "mm"]
            assert job["result"]["failed"] == 1
            assert len(job["failures"]) == 1
            failure = job["failures"][0]
            assert failure["name"] == "fft"
            assert failure["error"] == "ValueError"
            assert "injected engine failure" in failure["message"]
            assert failure["attempts"] >= 1

    def test_job_fails_when_every_benchmark_fails(self):
        def evaluator(task):
            raise ValueError("nothing works")

        with running_service(evaluator=evaluator) as (_, client):
            from repro.service.client import JobFailed
            job_id = client.sweep(["conv", "fft"], **EVAL_KW)
            with pytest.raises(JobFailed, match="benchmarks failed"):
                client.wait_job(job_id, poll_interval=0.05, timeout=30)
            job = client.job(job_id)
            assert job["status"] == "failed"
            assert sorted(f["name"] for f in job["failures"]) \
                == ["conv", "fft"]

    def test_job_admission_backpressure(self):
        stub = StubEvaluator(gated=True)
        config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                               max_pending=4, max_jobs=1,
                               use_cache=False)
        with running_service(config, evaluator=stub) as (service,
                                                         client):
            url = f"http://127.0.0.1:{service.port}/v1/sweep"
            status, _, first = post_raw(url, {"names": ["conv"]})
            assert status == 202
            status, headers, body = post_raw(url, {"names": ["fft"]})
            assert status == 429
            assert "active jobs" in body["error"]
            assert headers.get("Retry-After") == "1"
            stub.release.set()
            job = client.wait_job(first["job_id"], poll_interval=0.05,
                                  timeout=30)
            assert job["status"] == "done"


class TestExploreJobs:
    def test_explore_job_roundtrip(self):
        with running_service() as (service, client):
            url = f"http://127.0.0.1:{service.port}/v1/explore"
            status, _, body = post_raw(url, {
                "benchmarks": ["conv"], "budget": 6, "seed": 0,
                "scale": 0.1, "max_invocations": 2,
                "space": "paper"})
            assert status == 202
            assert body["budget"] == 6
            job = client.wait_job(body["job_id"], poll_interval=0.1,
                                  timeout=120)
            assert job["status"] == "done"
            payload = job["result"]["explore"]
            assert payload["schema"] == 1
            assert payload["budget"]["spent"] == 6
            assert payload["budget"]["space_size"] == 64
            assert payload["config"]["benchmarks"] == ["conv"]
            assert payload["frontier"]
            assert len(payload["points"]) == 6

    def test_explore_body_validated(self):
        with running_service(evaluator=StubEvaluator()) as (service, _):
            url = f"http://127.0.0.1:{service.port}/v1/explore"
            status, _, body = post_raw(url, {"benchmarks": ["bogus"]})
            assert status == 400
            assert "unknown benchmarks" in body["error"]
            status, _, body = post_raw(url, {"space": "galaxy"})
            assert status == 400
            assert "unknown space" in body["error"]
            status, _, body = post_raw(url, {"budget": 0})
            assert status == 400
            assert "budget" in body["error"]
            status, _, body = post_raw(url, {"scale": -1})
            assert status == 400
            assert "scale" in body["error"]


class TestGracefulDrain:
    def test_inflight_request_completes_during_drain(self):
        stub = StubEvaluator(gated=True)
        with running_service(evaluator=stub) as (service, client):
            with ThreadPoolExecutor(1) as pool:
                blocked = pool.submit(client.evaluate, "conv")
                while not stub.calls:
                    time.sleep(0.01)
                service.request_stop_threadsafe()
                # Give the drain loop a moment to close the listener,
                # then let the evaluation finish.
                time.sleep(0.1)
                stub.release.set()
                response = blocked.result(timeout=30)
            assert response["source"] == "computed"
        # context exit asserts the service thread terminated cleanly

    def test_stop_after_the_service_loop_closed_is_a_noop(self):
        """A stop request that arrives after ``asyncio.run`` closed
        the service's loop has nothing left to stop."""
        service = EvaluationService(
            ServiceConfig(port=0, workers=1, pool_mode="thread",
                          use_cache=False),
            evaluator=StubEvaluator())

        async def go():
            await service.start(warm=False)
            await service.shutdown()

        thread = threading.Thread(target=asyncio.run, args=(go(),))
        thread.start()
        thread.join(30)
        assert not thread.is_alive(), "service failed to shut down"
        service.request_stop_threadsafe()


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """`repro serve` + SIGTERM: drains and exits 0 (satellite)."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool", "thread", "--workers", "1",
             "--cache-dir", str(tmp_path / "cache"),
             "--drain-timeout", "20"],
            env=env, stderr=subprocess.PIPE, text=True, bufsize=1)
        port = None
        try:
            for line in process.stderr:
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "server never announced its port"
            client = ServiceClient(f"http://127.0.0.1:{port}",
                                   timeout=60, retries=2)
            response = client.evaluate("conv", **EVAL_KW)
            assert response["source"] == "computed"
            process.send_signal(signal.SIGTERM)
            remaining = process.stderr.read()
            assert process.wait(timeout=60) == 0
            assert "drained and shut down cleanly" in remaining
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)


class TestRouter:
    def test_match_and_params(self):
        router = Router()
        router.add("GET", "/v1/jobs/{id}", "jobs")
        router.add("POST", "/v1/evaluate", "evaluate")
        handler, params, template = router.match("GET", "/v1/jobs/abc")
        assert handler == "jobs"
        assert params == {"id": "abc"}
        assert template == "/v1/jobs/{id}"

    def test_wrong_method_reports_allowed(self):
        router = Router()
        router.add("POST", "/v1/evaluate", "evaluate")
        handler, allowed, template = router.match("GET", "/v1/evaluate")
        assert handler is None
        assert allowed == ["POST"]
        assert template == "/v1/evaluate"

    def test_unknown_path(self):
        router = Router()
        router.add("GET", "/v1/healthz", "health")
        assert router.match("GET", "/nope") == (None, None, None)


class TestLatencyHistogram:
    def test_quantiles_and_snapshot(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.2):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["p50_ms"] <= snapshot["p95_ms"]
        assert snapshot["max_ms"] == pytest.approx(200.0)
        assert histogram.quantile(1.0) == pytest.approx(0.2)

    def test_empty(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p95_ms"] == 0.0


# ---------------------------------------------------------------------------
# The pool's fault contract: real process workers, injected faults.

#: One core, one subset: the smallest real evaluation.
POOL_KW = dict(cores=["IO2"], subsets=[["simd"]], **EVAL_KW)


def pool_task(name):
    from repro.dse.parallel import make_task
    return make_task(name, ("IO2",), (("simd",),), **EVAL_KW)


def computed_inline(name):
    from repro.dse.parallel import evaluate_payload
    return evaluate_payload(pool_task(name))[0]


def run_on_pool(pool, coro):
    """Drive *coro* on a fresh event loop, then shut *pool* down."""
    async def go():
        try:
            return await asyncio.wait_for(coro, 120)
        finally:
            pool.shutdown(wait=True)
    return asyncio.run(go())


@pytest.fixture
def fault_spec(monkeypatch, tmp_path):
    """Set ``$REPRO_FAULT_SPEC`` (workers inherit it at spawn); keep
    postmortem dumps inside the test's tmp dir."""

    def activate(text):
        monkeypatch.setenv(ENV_VAR, text)
        reset_plan()

    set_blackbox_dir(tmp_path / "blackbox")
    get_flight_recorder().clear()
    yield activate
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_plan()
    set_blackbox_dir(None)


class TestPoolFaults:
    def test_crash_respawns_and_computes(self, fault_spec):
        fault_spec("crash:task=conv")
        pool = EvaluationPool(workers=1, mode="process")
        payload, _ = run_on_pool(pool, pool.evaluate(pool_task("conv")))
        assert payload == computed_inline("conv")
        assert pool.restarts == 1
        assert pool.degraded is False

    def test_crash_every_try_degrades_and_healthz_reports_it(
            self, fault_spec):
        fault_spec("crash:task=conv:attempt=*")
        config = ServiceConfig(port=0, workers=2, pool_mode="process",
                               use_cache=False, max_pool_restarts=2)
        with running_service(config) as (service, client):
            with pytest.raises(ServiceError):
                client.evaluate("conv", **POOL_KW)
            health = client.healthz()
        tries = [event for event in get_flight_recorder().snapshot()
                 if event["kind"] == "task.dispatch"
                 and event["fields"]["task"] == "conv"]
        assert len(tries) == config.max_pool_restarts + 1
        assert service.pool.degraded is True
        assert service.pool.workers == 1
        assert health["pool"]["degraded"] is True
        assert health["pool"]["workers"] == 1

    def test_hang_times_out_then_next_request_computes(self, fault_spec):
        fault_spec("hang:task=conv:seconds=60")
        pool = EvaluationPool(workers=1, mode="process", task_timeout=3)

        async def go():
            with pytest.raises(EvaluationTimeout):
                await pool.evaluate(pool_task("conv"))
            return await pool.evaluate(pool_task("fft"))

        payload, _ = run_on_pool(pool, go())
        assert payload == computed_inline("fft")
        assert pool.restarts == 1

    def test_timeout_clock_starts_at_dispatch(self, fault_spec):
        """A request queued behind a hung one is not charged for the
        wait: only the hung request times out."""
        fault_spec("hang:task=conv:seconds=60")
        timeouts0 = get_registry().total("repro_task_timeouts_total")
        pool = EvaluationPool(workers=1, mode="process", task_timeout=3)

        async def go():
            return await asyncio.gather(
                pool.evaluate(pool_task("conv")),
                pool.evaluate(pool_task("fft")),
                return_exceptions=True)

        hung, computed = run_on_pool(pool, go())
        assert isinstance(hung, EvaluationTimeout)
        assert not isinstance(computed, BaseException), computed
        assert computed[0] == computed_inline("fft")
        assert get_registry().total("repro_task_timeouts_total") \
            == timeouts0 + 1

    def test_dispatch_never_exceeds_workers(self):
        """More concurrent evaluations than workers: each one is
        dispatched only to a free worker, and all of them complete."""
        lock = threading.Lock()
        state = {"running": 0, "peak": 0}

        def evaluator(task):
            with lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
            time.sleep(0.01)
            with lock:
                state["running"] -= 1
            return stub_payload(task["name"]), 0.0

        pool = EvaluationPool(workers=2, mode="thread",
                              evaluator=evaluator)

        async def go():
            return await asyncio.gather(*(
                pool.evaluate({"name": f"b{index}"})
                for index in range(16)))

        results = run_on_pool(pool, go())
        assert [payload["benchmark"] for payload, _ in results] \
            == [f"b{index}" for index in range(16)]
        assert state["peak"] == 2
