"""The sweep coordinator: a control-plane HTTP service for a fleet.

``repro coordinate`` runs one of these.  It owns the sweep definition
(benchmarks x cores x subsets at one scale), the shared
content-addressed store, the node registry and the lease table — and
evaluates nothing itself.  Workers (``repro serve --worker-of URL``)
pull shard leases, evaluate them with their normal service machinery
(cache -> coalesce -> slots -> pool), and push verified results back.

Protocol (all JSON over the same stdlib HTTP layer the service uses):

- ``POST /v1/nodes/register`` ``{name, pid}`` -> ``{node_id, ...}``
- ``POST /v1/nodes/{id}/heartbeat`` -> 200, or 404 (re-register)
- ``POST /v1/nodes/{id}/lease`` -> a shard, ``{idle}``, or ``{done}``
- ``POST /v1/nodes/{id}/result`` — checksum-verified; first wins
- ``GET/PUT /v1/cache/{key}`` — canonical entry bytes with an
  ``X-Repro-Checksum`` header (the peer-cache wire protocol, served by
  :func:`repro.cluster.backends.serve_cache` like on every service)
- ``GET /v1/healthz`` — nodes, shard states, live leases

Determinism contract: the merged artifact is built by the same
:func:`repro.dse.sweep.merge_sweep` that ends
:func:`repro.dse.sweep.run_sweep` — records rebuilt from canonical
payloads, merged in sorted-benchmark order — so ``dumps_sweep`` bytes
are identical to a serial one-box run no matter which nodes lived,
died, or answered twice.
"""

import asyncio
import json
import sys
import time

from repro.dse.cache import (
    LocalDirBackend, cache_key, default_cache_dir, entry_checksum,
    entry_meta,
)
from repro.dse.parallel import make_task
from repro.dse.sweep import SweepStats, merge_sweep
from repro.obs import (
    counter, current_trace_id, flight_event, new_trace_id,
    set_blackbox_dir, span, trace_context,
)
from repro.service.http import (
    MAX_HEADER_BYTES, Response, Router, handle_connection,
)
from repro.cluster.backends import serve_cache
from repro.cluster.leases import (
    DEFAULT_HEDGE_AFTER, DEFAULT_LEASE_TTL, LeaseTable,
)
from repro.cluster.registry import DEFAULT_HEARTBEAT_TTL, NodeRegistry


def record_checksum(record):
    """Integrity checksum a worker sends with a shard result.

    Over the minified canonical record serialization, so coordinator
    and worker agree on the bytes being checksummed regardless of
    transport framing.
    """
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return entry_checksum(blob)


class CoordinatorConfig:
    """Tunables for one coordinated sweep."""

    def __init__(self, host="127.0.0.1", port=8900, names=None,
                 core_names=None, subsets=None, scale=0.5,
                 max_invocations=8, with_amdahl=False, cache_dir=None,
                 lease_ttl=DEFAULT_LEASE_TTL,
                 heartbeat_ttl=DEFAULT_HEARTBEAT_TTL,
                 hedge_after=DEFAULT_HEDGE_AFTER,
                 poll_interval=0.25, timeout=None):
        self.host = host
        self.port = port
        self.names = names
        self.core_names = core_names
        self.subsets = subsets
        self.scale = scale
        self.max_invocations = max_invocations
        self.with_amdahl = with_amdahl
        self.cache_dir = cache_dir
        self.lease_ttl = lease_ttl
        self.heartbeat_ttl = heartbeat_ttl
        self.hedge_after = hedge_after
        self.poll_interval = poll_interval
        self.timeout = timeout


class Coordinator:
    """One coordinated sweep: registry + leases + shared store."""

    def __init__(self, config):
        from repro.core_model.config import DSE_CORES
        from repro.dse.sweep import ALL_SUBSETS
        from repro.workloads import WORKLOADS

        self.config = config
        names = list(config.names) if config.names is not None \
            else sorted(WORKLOADS)
        names = list(dict.fromkeys(names))
        for name in names:
            if name not in WORKLOADS:
                raise KeyError(f"unknown workload {name!r}")
        self.names = names
        self.core_names = tuple(config.core_names or DSE_CORES)
        self.subsets = tuple(tuple(s) for s in
                             (config.subsets or ALL_SUBSETS))

        self.cache = LocalDirBackend(
            config.cache_dir if config.cache_dir is not None
            else default_cache_dir())
        set_blackbox_dir(self.cache.root / "blackbox")

        self.tasks = {}
        self.keys = {}
        for name in self.names:
            self.tasks[name] = make_task(
                name, self.core_names, self.subsets,
                scale=config.scale,
                max_invocations=config.max_invocations,
                with_amdahl=config.with_amdahl)
            self.keys[name] = cache_key(
                name, config.scale, self.core_names, self.subsets,
                config.max_invocations, config.with_amdahl)

        self.stats = SweepStats(workers=0, cache_dir=self.cache.root)
        self.payloads = {}
        self.failed = {}            # name -> failure dict
        # Cache-warm shards resolve immediately; only cold ones are
        # leased out (exactly run_sweep's warm-start semantics).
        cold = []
        for name in self.names:
            started = time.perf_counter()
            payload = self.cache.load(self.keys[name])
            if payload is not None:
                self.payloads[name] = payload
                self.stats.add(name, "cached",
                               time.perf_counter() - started)
            else:
                cold.append(name)
        self.registry = NodeRegistry(
            heartbeat_ttl=config.heartbeat_ttl)
        self.leases = LeaseTable(cold, lease_ttl=config.lease_ttl,
                                 hedge_after=config.hedge_after)

        self.host = config.host
        self.port = config.port
        self.started_at = time.time()
        #: The run's trace (the caller's, if bound); a request that
        #: brings no trace of its own is served in it.
        self.trace_id = current_trace_id() or new_trace_id()
        self._server = None
        self._tick_task = None
        self._done_event = None

        self.router = Router()
        self.router.add("POST", "/v1/nodes/register",
                        self.handle_register)
        self.router.add("POST", "/v1/nodes/{id}/heartbeat",
                        self.handle_heartbeat)
        self.router.add("POST", "/v1/nodes/{id}/lease",
                        self.handle_lease)
        self.router.add("POST", "/v1/nodes/{id}/result",
                        self.handle_result)
        self.router.add("GET", "/v1/healthz", self.handle_healthz)
        serve_cache(self.router, self.cache)

    # ------------------------------------------------------------------
    # Completion accounting.

    @property
    def complete(self):
        """Every shard resolved — a payload or a terminal failure."""
        return all(name in self.payloads or name in self.failed
                   for name in self.names)

    def _check_done(self):
        if self.complete and self._done_event is not None:
            self._done_event.set()

    # ------------------------------------------------------------------
    # Fleet handlers.

    async def handle_register(self, request, params):
        body = request.json()
        node_id = self.registry.register(
            body.get("name") or "worker", pid=body.get("pid"))
        return Response.json({
            "node_id": node_id,
            "lease_ttl": self.leases.lease_ttl,
            "heartbeat_ttl": self.registry.heartbeat_ttl,
            "heartbeat_interval": max(
                0.05, self.registry.heartbeat_ttl / 4.0),
            "poll_interval": self.config.poll_interval,
        })

    async def handle_heartbeat(self, request, params):
        if not self.registry.heartbeat(params["id"]):
            return Response.error(
                404, f"unknown node {params['id']!r} (re-register)")
        return Response.json({"ok": True})

    async def handle_lease(self, request, params):
        node_id = params["id"]
        if not self.registry.is_live(node_id):
            return Response.error(
                404, f"unknown node {node_id!r} (re-register)")
        if self.complete:
            return Response.json({"done": True})
        lease = self.leases.claim(node_id)
        if lease is None:
            return Response.json({
                "idle": True,
                "poll_interval": self.config.poll_interval,
            })
        return Response.json({
            "name": lease.name,
            "key": self.keys[lease.name],
            "task": self.tasks[lease.name],
            "lease_ttl": self.leases.lease_ttl,
            "hedged": lease.hedged,
        })

    async def handle_result(self, request, params):
        """Accept one shard result: verify, first-wins, persist.

        Verification: the shard must be one of ours, the key must
        match our own computation of it, and the record checksum must
        match the body — a torn or tampered result is rejected (the
        worker's lease simply expires and the shard re-dispatches).
        Results are accepted even from evicted nodes: a verified
        result is a verified result, and byte determinism makes the
        origin irrelevant.
        """
        node_id = params["id"]
        body = request.json()
        name = body.get("name")
        if name not in self.keys:
            return Response.error(400, f"unknown shard {name!r}")

        failure = body.get("failure")
        if failure is not None:
            if name not in self.payloads and name not in self.failed:
                self.failed[name] = dict(failure, name=name)
                self.stats.add_failure(dict(failure, name=name))
                flight_event("cluster.shard_failed", shard=name,
                             node=node_id)
            self._check_done()
            return Response.json({"accepted": True, "failed": True})

        record = body.get("record")
        if body.get("key") != self.keys[name] \
                or not isinstance(record, dict) \
                or body.get("checksum") != record_checksum(record):
            counter("repro_cluster_results_total",
                    "shard results by disposition").inc(
                        disposition="rejected")
            flight_event("cluster.result_rejected", shard=name,
                         node=node_id)
            return Response.error(400, "result failed verification")

        won = self.leases.complete(name, node_id, record)
        if won:
            self.payloads[name] = record
            self.failed.pop(name, None)
            # A worker's write-through PUT has usually stored the
            # entry already; store it only when that PUT did not land.
            if self.keys[name] not in self.cache:
                self.cache.store(self.keys[name], record, meta=entry_meta(
                    name, self.config.scale, self.config.max_invocations))
            self.stats.add(name, "computed",
                           float(body.get("seconds") or 0.0))
            self.registry.record_completion(node_id)
        self._check_done()
        return Response.json({"accepted": won,
                              "duplicate": not won})

    async def handle_healthz(self, request, params):
        return Response.json({
            "status": "done" if self.complete else "coordinating",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "benchmarks": len(self.names),
            "nodes": self.registry.to_json(),
            "shards": self.leases.to_json(),
            "resolved": {
                "cached": self.stats.hits,
                "computed": self.stats.misses,
                "failed": len(self.failed),
            },
        })

    # ------------------------------------------------------------------
    # Lifecycle.

    async def _tick(self):
        """Periodic fleet maintenance: eviction + lease expiry."""
        interval = max(0.05, min(0.5,
                                 self.registry.heartbeat_ttl / 4.0))
        while True:
            await asyncio.sleep(interval)
            for node_id in self.registry.sweep_dead():
                self.leases.release_node(node_id)
            self.leases.expire()

    async def start(self):
        self._done_event = asyncio.Event()
        self._check_done()          # all-warm sweeps finish instantly
        self._server = await asyncio.start_server(
            lambda r, w: handle_connection(self.router.dispatch, r, w,
                                           self.trace_id),
            host=self.config.host, port=self.config.port,
            limit=MAX_HEADER_BYTES)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._tick_task = asyncio.create_task(self._tick())

    async def wait_complete(self, timeout=None):
        """Block until every shard resolves; False on timeout."""
        try:
            await asyncio.wait_for(self._done_event.wait(),
                                   timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self):
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=1.0)
            except asyncio.TimeoutError:
                pass

def run_coordinated(config, announce=None):
    """Blocking entry point behind ``repro coordinate``.

    Starts the coordinator, waits for the fleet to resolve every
    shard (bounded by ``config.timeout``), merges, and returns the
    :class:`~repro.dse.sweep.SweepResult`.  Raises ``TimeoutError``
    when the deadline passes with shards unresolved.
    """
    from repro.dse.sweep import _append_runlog

    coordinator = Coordinator(config)

    async def _main():
        with trace_context(coordinator.trace_id), \
                span("cluster.coordinate",
                     benchmarks=len(coordinator.names)):
            await coordinator.start()
            if announce is not None:
                announce(coordinator)
            finished = await coordinator.wait_complete(
                timeout=config.timeout)
            await coordinator.stop()
            return finished

    finished = asyncio.run(_main())
    if not finished:
        counts = coordinator.leases.counts()
        raise TimeoutError(
            f"coordinated sweep timed out after {config.timeout}s "
            f"with {counts['done']}/{counts['total']} cold shards "
            f"done ({len(coordinator.registry)} live nodes)")
    # Merged exactly like run_sweep merges: worker count, node deaths,
    # hedged duplicates and cache state cannot perturb one byte.
    coordinator.stats.workers = (len(coordinator.registry)
                                 + len(coordinator.registry.evicted))
    sweep = merge_sweep(coordinator.payloads, coordinator.core_names,
                        coordinator.subsets, coordinator.stats)
    _append_runlog(coordinator.cache.root, sweep.stats,
                   sweep.stats.workers)
    return sweep


def announce_stderr(coordinator):
    """Default ``announce`` hook: one parseable line on stderr."""
    print(f"[coordinate] listening on "
          f"http://{coordinator.host}:{coordinator.port} "
          f"({len(coordinator.names)} benchmarks, "
          f"{coordinator.leases.counts()['pending']} cold, "
          f"cache={coordinator.cache.root})",
          file=sys.stderr, flush=True)
