"""The evaluation service: routes, request lifecycle, drain logic.

``EvaluationService`` ties the pieces together:

- **cache** — every request is keyed with the sweep cache's content
  key; a warm key is answered from disk without touching the pool.
- **coalescing** — identical concurrent requests share one in-flight
  computation (:mod:`repro.service.coalesce`).
- **backpressure** — a bounded slot pool; exhausted means HTTP 429
  with ``Retry-After``, never an unbounded queue or a hang.
- **batching** — ``POST /v1/sweep`` admits one async job covering many
  benchmarks; each finished benchmark persists to the cache
  immediately, so a killed or drained job leaves warm shards behind.
- **graceful drain** — SIGTERM stops accepting work, lets in-flight
  requests and jobs finish (bounded by ``drain_timeout``), then shuts
  the pool down.
- **fault tolerance** — a crashed worker respawns the pool and the
  evaluation retries; a hung evaluation is killed at ``task_timeout``
  and answered 504; sweep jobs contain per-benchmark failures in
  ``job.failures`` instead of aborting (see ``docs/resilience.md``).
"""

import asyncio
import signal
import sys
import time

from repro.obs import current_trace_id
from repro.resilience.policy import EvaluationTimeout
from repro.service.coalesce import Coalescer
from repro.service.http import (
    MAX_HEADER_BYTES, BadRequest, Response, Router, handle_connection,
)
from repro.service.jobs import JobRegistry, QueueFull, Slots
from repro.service.metrics import Metrics
from repro.service.workers import EvaluationPool

#: Seconds a 429'd client should wait before retrying.
RETRY_AFTER_SECONDS = 1


class ServiceConfig:
    """Tunables for one service instance (all have sane defaults)."""

    def __init__(self, host="127.0.0.1", port=8765, workers=2,
                 pool_mode="process", max_pending=8, max_jobs=4,
                 cache_dir=None, use_cache=True, drain_timeout=30.0,
                 task_timeout=None, max_pool_restarts=2,
                 worker_of=None, node_name=None):
        self.host = host
        self.port = port
        self.workers = workers
        self.pool_mode = pool_mode
        self.max_pending = max_pending
        self.max_jobs = max_jobs
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.drain_timeout = drain_timeout
        self.task_timeout = task_timeout
        self.max_pool_restarts = max_pool_restarts
        #: Coordinator URL to join as a fleet worker (None = standalone).
        self.worker_of = worker_of
        #: Advertised node name when joining a fleet.
        self.node_name = node_name


def _normalize_params(body):
    """Validate a request body into evaluation keyword arguments.

    Defaults mirror :func:`repro.dse.sweep.evaluate_one_benchmark`
    exactly — the service must key and compute the same points the
    CLI does, or the shared cache splits in two.
    """
    from repro.core_model import core_by_name
    from repro.core_model.config import DSE_CORES
    from repro.dse.sweep import ALL_BSAS, ALL_SUBSETS

    _refuse_arbitration(body)
    cores = body.get("cores")
    if cores is None:
        cores = DSE_CORES
    elif (not isinstance(cores, (list, tuple)) or not cores
          or not all(isinstance(c, str) for c in cores)):
        raise BadRequest("'cores' must be a non-empty list of names")
    for core in cores:
        try:
            core_by_name(core)
        except (KeyError, ValueError) as exc:
            raise BadRequest(f"unknown core {core!r}") from exc

    subsets = body.get("subsets")
    if subsets is None:
        subsets = ALL_SUBSETS
    else:
        if not isinstance(subsets, (list, tuple)):
            raise BadRequest("'subsets' must be a list of BSA lists")
        known = set(ALL_BSAS)
        for subset in subsets:
            if not isinstance(subset, (list, tuple)):
                raise BadRequest("each subset must be a list of BSAs")
            unknown = [b for b in subset if b not in known]
            if unknown:
                raise BadRequest(f"unknown BSAs {unknown!r} "
                                 f"(known: {sorted(known)})")

    try:
        scale = float(body.get("scale", 1.0))
        max_invocations = int(body.get("max_invocations", 8))
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad numeric parameter: {exc}") from exc
    if scale <= 0:
        raise BadRequest("'scale' must be > 0")
    if max_invocations < 1:
        raise BadRequest("'max_invocations' must be >= 1")

    return {
        "core_names": tuple(cores),
        "subsets": tuple(tuple(s) for s in subsets),
        "scale": scale,
        "max_invocations": max_invocations,
        "with_amdahl": bool(body.get("with_amdahl", True)),
    }


def _refuse_arbitration(body):
    """400 on a non-null ``arbitration`` field.

    Model arbitration was removed: every evaluation runs the fast BSA
    models.  Unknown fields are otherwise ignored, so without this an
    old client would get fast-model numbers for a request it believes
    is arbitrated.  An absent or null field keeps the historical
    request, and with it the historical cache key.
    """
    if body.get("arbitration") is not None:
        raise BadRequest("'arbitration' was removed: model arbitration "
                         "no longer exists and every evaluation runs "
                         "the fast BSA models; drop the field")


def _normalize_explore(body):
    """Validate a ``POST /v1/explore`` body into run_explore kwargs."""
    from repro.explore.space import DesignSpace

    _refuse_arbitration(body)
    benchmarks = body.get("benchmarks", ["conv"])
    if (not isinstance(benchmarks, (list, tuple)) or not benchmarks
            or not all(isinstance(n, str) for n in benchmarks)):
        raise BadRequest("'benchmarks' must be a non-empty list of "
                         "names")
    _validate_benchmarks(benchmarks)

    try:
        budget = int(body.get("budget", 16))
        seed = int(body.get("seed", 0))
        scale = float(body.get("scale", 0.5))
        max_invocations = int(body.get("max_invocations", 8))
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad numeric parameter: {exc}") from exc
    if budget < 1:
        raise BadRequest("'budget' must be >= 1")
    if scale <= 0:
        raise BadRequest("'scale' must be > 0")
    if max_invocations < 1:
        raise BadRequest("'max_invocations' must be >= 1")

    space_kind = body.get("space", "paper")
    if space_kind == "paper":
        space = DesignSpace.paper(max_invocations=(max_invocations,))
    elif space_kind == "full":
        space = DesignSpace()
    else:
        raise BadRequest(f"unknown space {space_kind!r} "
                         "(known: paper, full)")

    kwargs = {
        "space": space,
        "benchmarks": tuple(benchmarks),
        "budget": budget,
        "seed": seed,
        "scale": scale,
    }
    for knob, kind in (("init", int), ("batch_size", int),
                       ("explore_fraction", float)):
        value = body.get(knob)
        if value is not None:
            try:
                kwargs[knob] = kind(value)
            except (TypeError, ValueError) as exc:
                raise BadRequest(
                    f"bad {knob!r}: {exc}") from exc
    return kwargs


def _validate_benchmarks(names):
    from repro.workloads import WORKLOADS
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise BadRequest(f"unknown benchmarks {unknown!r} "
                         "(see GET /v1/benchmarks)")


class EvaluationService:
    """One long-lived evaluation server instance."""

    def __init__(self, config=None, evaluator=None):
        self.config = config or ServiceConfig()
        self.metrics = Metrics()
        self.slots = Slots(self.config.max_pending)
        self.jobs = JobRegistry(max_active=self.config.max_jobs)
        self.coalescer = Coalescer()
        self.pool = EvaluationPool(
            workers=self.config.workers, mode=self.config.pool_mode,
            evaluator=evaluator,
            task_timeout=self.config.task_timeout,
            max_pool_restarts=self.config.max_pool_restarts)
        self.router = Router()
        self.router.add("POST", "/v1/evaluate", self.handle_evaluate)
        self.router.add("POST", "/v1/sweep", self.handle_sweep)
        self.router.add("POST", "/v1/explore", self.handle_explore)
        self.router.add("GET", "/v1/jobs/{id}", self.handle_job)
        self.router.add("GET", "/v1/healthz", self.handle_healthz)
        self.router.add("GET", "/v1/metrics", self.handle_metrics)
        self.router.add("GET", "/v1/benchmarks", self.handle_benchmarks)
        self.router.add("GET", "/v1/dash", self.handle_dash)

        self.cache = None
        # Whether cache loads and stores may block on a peer's HTTP
        # answer; they then run in a thread, off the event loop.
        self._cache_io_blocks = False
        if self.config.use_cache:
            from repro.cluster.backends import serve_cache
            from repro.dse.cache import SweepCache, default_cache_dir
            self.cache = SweepCache(
                self.config.cache_dir if self.config.cache_dir is not None
                else default_cache_dir())
            # Postmortem dumps land next to the cache this service uses.
            from repro.obs import set_blackbox_dir
            set_blackbox_dir(self.cache.root / "blackbox")
            # Peers read and push entries in the local directory.
            serve_cache(self.router, self.cache)
            if self.config.worker_of:
                # Fleet member: local dir under the coordinator's
                # store — peer hits read-repair the local tier, local
                # computations write through to the fleet.
                from repro.cluster.backends import (
                    HTTPPeerBackend, TieredCache,
                )
                self.cache = TieredCache(
                    self.cache,
                    HTTPPeerBackend(
                        self.config.worker_of,
                        quarantine_dir=self.cache.quarantine_dir))
                self._cache_io_blocks = True
        self.fleet = None
        if self.config.worker_of:
            from repro.cluster.worker import FleetWorker
            self.fleet = FleetWorker(self, self.config.worker_of,
                                     node_name=self.config.node_name)
        self._fleet_task = None
        self.host = self.config.host
        self.port = self.config.port
        self.draining = False
        self._server = None
        self._loop = None
        self._stop_event = None
        self._active_requests = 0
        self._job_tasks = set()

    # ------------------------------------------------------------------
    # Core evaluation path: cache -> coalesce -> slots -> pool.

    def _task_and_key(self, name, params):
        from repro.dse.cache import cache_key
        from repro.dse.parallel import make_task
        task = make_task(name, **params)
        key = cache_key(name, params["scale"], params["core_names"],
                        params["subsets"], params["max_invocations"],
                        params["with_amdahl"])
        return task, key

    async def _cache_io(self, call, *args, **kwargs):
        """One cache load or store: in a thread when it may wait on a
        peer (a fleet worker's tiered cache), else inline, since a
        local-directory hit costs less than a thread hand-off."""
        if self._cache_io_blocks:
            return await asyncio.to_thread(call, *args, **kwargs)
        return call(*args, **kwargs)

    async def _evaluate_keyed(self, task, key, blocking=False):
        """Resolve one keyed evaluation; ``(payload, source)``.

        *source* is ``"cache"`` (disk hit), ``"coalesced"`` (shared an
        in-flight computation) or ``"computed"`` (this call ran the
        engine).  Raises :class:`QueueFull` when non-blocking and no
        compute slot is free.
        """
        if self.cache is not None:
            payload = await self._cache_io(self.cache.load, key)
            if payload is not None:
                self.metrics.record_cache_hit()
                return payload, "cache"
            self.metrics.record_cache_miss()

        future, leader = self.coalescer.claim(key)
        if not leader:
            self.metrics.record_coalesced()
            payload = await self.coalescer.wait(future)
            return payload, "coalesced"

        if blocking:
            await self.slots.acquire()
        elif not self.slots.try_acquire():
            error = QueueFull(
                f"all {self.slots.capacity} compute slots busy")
            self.coalescer.finish(key, future, error=error)
            raise error
        try:
            started = time.perf_counter()
            payload, _seconds = await self.pool.evaluate(task)
            self.metrics.record_computation(
                time.perf_counter() - started)
            if self.cache is not None:
                from repro.dse.cache import entry_meta
                await self._cache_io(
                    self.cache.store, key, payload, meta=entry_meta(
                        task["name"], task["scale"],
                        task["max_invocations"]))
        except BaseException as exc:
            self.coalescer.finish(key, future, error=exc)
            raise
        finally:
            await self.slots.release()
        self.coalescer.finish(key, future, result=payload)
        return payload, "computed"

    # ------------------------------------------------------------------
    # Handlers.

    async def handle_evaluate(self, request, params):
        if self.draining:
            return Response.error(503, "server is draining")
        body = request.json()
        name = body.get("benchmark")
        if not isinstance(name, str) or not name:
            raise BadRequest("'benchmark' (string) is required")
        _validate_benchmarks([name])
        eval_params = _normalize_params(body)
        task, key = self._task_and_key(name, eval_params)
        started = time.perf_counter()
        try:
            payload, source = await self._evaluate_keyed(task, key)
        except QueueFull as exc:
            self.metrics.record_rejected()
            return Response.error(
                429, str(exc),
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)})
        except EvaluationTimeout as exc:
            return Response.error(504, str(exc))
        return Response.json({
            "benchmark": name,
            "key": key,
            "source": source,
            "seconds": round(time.perf_counter() - started, 6),
            "record": payload,
        })

    async def handle_sweep(self, request, params):
        if self.draining:
            return Response.error(503, "server is draining")
        body = request.json()
        names = body.get("names")
        if names is None:
            from repro.workloads import WORKLOADS
            names = sorted(WORKLOADS)
        elif (not isinstance(names, (list, tuple)) or not names
              or not all(isinstance(n, str) for n in names)):
            raise BadRequest("'names' must be a non-empty list")
        names = list(dict.fromkeys(names))
        _validate_benchmarks(names)
        eval_params = _normalize_params(body)
        try:
            job = self.jobs.create(
                "sweep",
                {"names": names, "scale": eval_params["scale"]},
                total=len(names), trace_id=current_trace_id())
        except QueueFull as exc:
            self.metrics.record_rejected()
            return Response.error(
                429, str(exc),
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)})
        self.metrics.record_job("submitted")
        items = [(name,) + self._task_and_key(name, eval_params)
                 for name in names]
        task = asyncio.create_task(self._run_sweep_job(job, items))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return Response.json({
            "job_id": job.id,
            "status": job.status,
            "benchmarks": len(names),
            "url": f"/v1/jobs/{job.id}",
        }, status=202)

    async def _run_sweep_job(self, job, items):
        """Drive one admitted sweep job to completion.

        Benchmarks fan out concurrently; the shared slot pool bounds
        how many actually occupy workers at once.  Each completed
        benchmark is persisted through the cache by the evaluate path
        itself, so a job cut off mid-drain leaves warm shards behind.

        Failures are contained per benchmark: one crashed or timed-out
        evaluation lands in ``job.failures`` (visible via ``GET
        /v1/jobs/{id}``) while its siblings keep running.  The job
        only reports ``failed`` when cancelled or when *every*
        benchmark failed.
        """
        from repro.service.jobs import JOB_RUNNING

        job.status = JOB_RUNNING
        payloads = {}
        sources = {"cache": 0, "coalesced": 0, "computed": 0}

        async def one(name, task, key):
            try:
                payload, source = await self._evaluate_keyed(
                    task, key, blocking=True)
            except asyncio.CancelledError:
                raise
            except EvaluationTimeout as exc:
                job.record_failure(name, exc, kind="timeout")
                return
            except Exception as exc:
                job.record_failure(name, exc)
                return
            payloads[name] = payload
            sources[source] += 1
            job.done += 1

        try:
            await asyncio.gather(*(one(*item) for item in items))
        except asyncio.CancelledError:
            job.fail(f"cancelled during drain after "
                     f"{job.done}/{job.total} benchmarks "
                     "(completed shards are cached)")
            self.metrics.record_job("failed")
            return
        if not payloads and job.failures:
            job.fail(f"all {job.total} benchmarks failed "
                     "(see failures)")
            self.metrics.record_job("failed")
            return
        job.finish({
            "benchmarks": {name: payloads[name]
                           for name in sorted(payloads)},
            "sources": sources,
            "failed": len(job.failures),
        })
        self.metrics.record_job("completed")

    async def handle_explore(self, request, params):
        """Admit one async surrogate-exploration job.

        The explore loop is sequential by nature (fit -> acquire ->
        evaluate), so the job runs it on a worker thread holding one
        compute slot — honest backpressure against interactive
        evaluations — while its exact evaluations share the service's
        cache directory with every other endpoint.
        """
        if self.draining:
            return Response.error(503, "server is draining")
        body = request.json()
        kwargs = _normalize_explore(body)
        try:
            job = self.jobs.create(
                "explore",
                {"benchmarks": list(kwargs["benchmarks"]),
                 "budget": kwargs["budget"],
                 "seed": kwargs["seed"],
                 "scale": kwargs["scale"],
                 "space_size": kwargs["space"].size},
                total=min(kwargs["budget"], kwargs["space"].size),
                trace_id=current_trace_id())
        except QueueFull as exc:
            self.metrics.record_rejected()
            return Response.error(
                429, str(exc),
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)})
        self.metrics.record_job("submitted")
        task = asyncio.create_task(self._run_explore_job(job, kwargs))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return Response.json({
            "job_id": job.id,
            "status": job.status,
            "budget": job.total,
            "url": f"/v1/jobs/{job.id}",
        }, status=202)

    async def _run_explore_job(self, job, kwargs):
        from repro.explore import run_explore
        from repro.service.jobs import JOB_RUNNING

        def progress(spent, _budget):
            # Plain int store from the worker thread: atomic under the
            # GIL, and the registry only ever reads it for display.
            job.done = spent

        await self.slots.acquire()
        job.status = JOB_RUNNING
        try:
            payload = await asyncio.to_thread(
                run_explore,
                cache_dir=self.cache.root if self.cache else None,
                use_cache=self.cache is not None,
                progress=progress, **kwargs)
        except asyncio.CancelledError:
            job.fail(f"cancelled during drain after "
                     f"{job.done}/{job.total} exact evaluations "
                     "(completed shards are cached)")
            self.metrics.record_job("failed")
            raise
        except Exception as exc:
            job.fail(f"{type(exc).__name__}: {exc}")
            self.metrics.record_job("failed")
            return
        finally:
            await self.slots.release()
        job.done = job.total
        job.finish({"explore": payload})
        self.metrics.record_job("completed")

    async def handle_job(self, request, params):
        job = self.jobs.get(params["id"])
        if job is None:
            return Response.error(404, f"no such job {params['id']!r}")
        return Response.json(job.to_json())

    async def handle_healthz(self, request, params):
        self.jobs.evict()
        payload = {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(
                time.time() - self.metrics.started_at, 3),
            "queue_depth": self.slots.depth,
            "active_jobs": self.jobs.active_count,
            "jobs": self.jobs.to_json(),
            "pool": {
                "workers": self.pool.workers,
                "mode": self.pool.mode,
                "restarts": self.pool.restarts,
                "degraded": self.pool.degraded,
            },
        }
        if self.fleet is not None:
            payload["fleet"] = self.fleet.to_json()
        return Response.json(payload)

    async def handle_metrics(self, request, params):
        if request.query.get("format", [""])[0] == "prom":
            from repro.obs import get_registry, render_prom
            # Service registry first, then the process-global pipeline
            # registry (engine/cache counters) in one exposition.
            body = render_prom([self.metrics.registry, get_registry()])
            return Response(
                status=200, body=body.encode("utf-8"),
                content_type="text/plain; version=0.0.4")
        return Response.json(self.metrics.snapshot(
            queue_depth=self.slots.depth,
            queue_capacity=self.slots.capacity,
            inflight_keys=self.coalescer.inflight,
            jobs_active=self.jobs.active_count,
            draining=self.draining))

    async def handle_benchmarks(self, request, params):
        from repro.workloads import WORKLOADS
        return Response.json({
            "benchmarks": {
                name: {"suite": w.suite, "category": w.category}
                for name, w in sorted(WORKLOADS.items())
            }})

    async def handle_dash(self, request, params):
        from repro.service.dash import render_dash
        return Response(
            status=200, body=render_dash().encode("utf-8"),
            content_type="text/html; charset=utf-8")

    # ------------------------------------------------------------------
    # Dispatch: metrics around the router (the listener adds tracing).

    async def dispatch(self, request):
        self._active_requests += 1
        started = time.perf_counter()
        status = 500
        try:
            response = await self.router.dispatch(request)
            status = response.status
            return response
        finally:
            self._active_requests -= 1
            self.metrics.observe_request(
                request.endpoint or "unmatched", status,
                time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self, install_signal_handlers=False, warm=True):
        """Bind the listener and warm the pool; returns when ready."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.pool.start(warm=warm)
        self._server = await asyncio.start_server(
            lambda r, w: handle_connection(self.dispatch, r, w),
            host=self.config.host, port=self.config.port,
            limit=MAX_HEADER_BYTES)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.fleet is not None:
            self._fleet_task = asyncio.create_task(self.fleet.run())
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self._stop_event.set)
                except NotImplementedError:   # non-POSIX event loops
                    pass

    def request_stop(self):
        """Begin shutdown from inside the event loop."""
        if self._stop_event is not None:
            self._stop_event.set()

    def request_stop_threadsafe(self):
        """Begin shutdown from another thread (tests, embedding).

        A no-op once the service has stopped and its loop is closed.
        """
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.request_stop)
        except RuntimeError:
            # The loop closed (``asyncio.run`` returned) before this
            # call, or while it was being made: nothing left to stop.
            pass

    async def wait_stopped(self):
        await self._stop_event.wait()

    async def shutdown(self, drain_timeout=None):
        """Drain and stop: refuse new work, finish in-flight work.

        Every benchmark a sweep job completed before the timeout has
        already been persisted through the cache, so even a job cut
        off mid-flight leaves warm shards for the next run.
        """
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout
        self.draining = True
        if self._fleet_task is not None:
            # The fleet loop checks ``draining`` between leases, but a
            # worker asleep in a poll/backoff should not stall drain.
            self._fleet_task.cancel()
            try:
                await self._fleet_task
            except (asyncio.CancelledError, Exception):
                pass
            self._fleet_task = None
        if self._server is not None:
            self._server.close()
            # 3.12+ wait_closed also waits for connection handlers;
            # an idle keep-alive client must not stall the drain.
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(),
                    timeout=min(1.0, drain_timeout))
            except asyncio.TimeoutError:
                pass

        deadline = self._loop.time() + drain_timeout
        while (self._active_requests > 0 or self._job_tasks) \
                and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._job_tasks):
            task.cancel()
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks,
                                 return_exceptions=True)
        self.pool.shutdown(wait=True)

    async def run(self, install_signal_handlers=True):
        """start -> serve until stop requested -> drain."""
        await self.start(install_signal_handlers=install_signal_handlers)
        await self.wait_stopped()
        await self.shutdown()


def serve(config=None):
    """Blocking entry point behind ``repro serve``; returns exit code."""
    from repro.dse.report import (
        render_table, service_metrics_table, span_summary_table,
    )
    from repro.obs import enable, get_recorder

    # A long-lived server always records spans: the shutdown summary
    # reports where request time went, and per-request trace ids are
    # only meaningful if the spans exist.
    enable(reset=True)
    service = EvaluationService(config)

    async def _main():
        await service.start(install_signal_handlers=True)
        cache_note = str(service.cache.root) if service.cache else "off"
        print(f"[serve] listening on "
              f"http://{service.host}:{service.port} "
              f"(workers={service.pool.workers} mode={service.pool.mode} "
              f"queue={service.slots.capacity} cache={cache_note})",
              file=sys.stderr, flush=True)
        if service.fleet is not None:
            print(f"[serve] joining fleet at "
                  f"{service.fleet.client.base_url} as "
                  f"{service.fleet.node_name}",
                  file=sys.stderr, flush=True)
        await service.wait_stopped()
        print("[serve] draining...", file=sys.stderr, flush=True)
        await service.shutdown()

    asyncio.run(_main())
    rows = service_metrics_table(service.metrics.snapshot())
    if rows:
        print(render_table(rows), file=sys.stderr)
    span_rows = span_summary_table(get_recorder(), top=10)
    if span_rows:
        print("[serve] slowest spans:", file=sys.stderr)
        print(render_table(span_rows), file=sys.stderr)
    _record_service_run(service)
    print("[serve] drained and shut down cleanly",
          file=sys.stderr, flush=True)
    return 0


def _record_service_run(service):
    """Leave a run-history line + final blackbox dump at shutdown.

    SIGTERM is one of the flight recorder's dump triggers: the ring's
    last events (dispatches, respawns, faults) survive the process for
    ``repro obs report`` and postmortems.  Best-effort by design.
    """
    from repro.obs import dump_blackbox
    from repro.obs.runlog import RunLog, runlog_entry

    dump_blackbox("shutdown")
    if service.cache is None:
        return
    snapshot = service.metrics.snapshot()
    requests = sum(e["requests"]
                   for e in snapshot["endpoints"].values())
    errors = sum(e["errors"] for e in snapshot["endpoints"].values())
    latencies = [e["latency"] for e in snapshot["endpoints"].values()
                 if "latency" in e and e["latency"]["count"]]
    entry = runlog_entry(
        "serve",
        uptime_seconds=snapshot["uptime_seconds"],
        requests=requests,
        errors=errors,
        computations=snapshot["computations_total"],
        coalesced=snapshot["coalesced_total"],
        rejected=snapshot["rejected_total"],
        cache_hit_rate=snapshot["cache"]["hit_rate"],
        latency_p50_ms=(max(l["p50_ms"] for l in latencies)
                        if latencies else None),
        latency_p95_ms=(max(l["p95_ms"] for l in latencies)
                        if latencies else None),
        pool_restarts=service.pool.restarts,
        pool_degraded=service.pool.degraded,
        jobs_completed=snapshot["jobs"]["completed"],
        jobs_failed=snapshot["jobs"]["failed"],
    )
    RunLog(service.cache.root).append(entry)
