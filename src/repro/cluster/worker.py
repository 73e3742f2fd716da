"""Fleet membership for an evaluation service node.

``repro serve --worker-of URL`` runs a normal evaluation service plus
one :class:`FleetWorker`: an asyncio loop that registers with the
coordinator, heartbeats on its own cadence (so a long evaluation
never looks like a death), pulls shard leases, evaluates them through
the service's standard path (tiered cache -> coalesce -> slots ->
pool), and pushes checksummed results back.  Its calls go through
:func:`repro.service.http.send_request` inside the run's trace, which
``register``'s answer echoes, peer-cache transfers included.

Failure handling mirrors the circuit-breaker client's philosophy —
the coordinator being unreachable is an expected state, not an error:
the worker backs off, keeps serving its local HTTP traffic, and
re-registers when the partition heals (or when the coordinator
evicted it for missed heartbeats).  Everything here is driven by the
deterministic fault harness: ``nodekill`` SIGKILLs the whole process
on lease accept, ``hbdrop``/``hbdelay`` starve or slow heartbeats,
``partition`` makes every coordinator call fail for a window.
"""

import asyncio
import contextvars
import json
import os
import signal
import socket

from repro.obs import counter, flight_event, trace_context
from repro.resilience.policy import EvaluationTimeout
from repro.service.http import HTTPStatusError, TransportError, send_request

#: Base seconds between reconnect attempts when the coordinator is
#: unreachable (doubles up to the max below).
BACKOFF_BASE = 0.25
BACKOFF_MAX = 5.0

#: Attempts to deliver one computed result before giving up and
#: letting the lease expire (another node will redo the shard).
RESULT_ATTEMPTS = 5


class CoordinatorUnreachable(Exception):
    """The coordinator did not answer (connection/timeout/5xx)."""


class ClusterClient:
    """Minimal synchronous JSON client for the coordinator protocol.

    Call it from a thread (``asyncio.to_thread``) — the worker loop
    does — so the service's event loop never blocks on the network.
    """

    def __init__(self, base_url, timeout=10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, path, body=None):
        from repro.resilience.faultinject import partition_active

        if partition_active():
            raise CoordinatorUnreachable(
                "injected partition: coordinator unreachable")
        try:
            status, headers, blob = send_request(
                "POST", f"{self.base_url}{path}",
                json.dumps(body or {}).encode("utf-8"),
                {"Content-Type": "application/json"},
                timeout=self.timeout)
            return status, json.loads(blob), headers
        except HTTPStatusError as exc:
            if exc.status >= 500:
                raise CoordinatorUnreachable(f"coordinator {exc}") from None
            try:
                payload = json.loads(exc.body)
            except ValueError:
                payload = {"error": str(exc)}
            return exc.status, payload, exc.headers
        except (TransportError, ValueError) as exc:
            raise CoordinatorUnreachable(str(exc)) from None

    def register(self, name, pid=None):
        """``(payload, the run's trace id)``; sent outside any trace,
        so the coordinator answers in the run's and echoes its id."""
        status, payload, headers = contextvars.Context().run(
            self._post, "/v1/nodes/register", {"name": name, "pid": pid})
        if status != 200:
            raise CoordinatorUnreachable(
                f"register rejected: {payload.get('error')}")
        return payload, headers.get("X-Trace-Id")

    def heartbeat(self, node_id):
        """True while the coordinator knows us; False = re-register."""
        status, _payload, _ = self._post(f"/v1/nodes/{node_id}/heartbeat")
        return status == 200

    def lease(self, node_id):
        """Claim a shard; the payload says shard/idle/done/404."""
        status, payload, _ = self._post(f"/v1/nodes/{node_id}/lease")
        if status == 404:
            return None             # evicted: caller re-registers
        return payload

    def result(self, node_id, body):
        status, payload, _ = self._post(f"/v1/nodes/{node_id}/result",
                                        body)
        if status != 200:
            raise CoordinatorUnreachable(
                f"result rejected ({status}): {payload.get('error')}")
        return payload


def normalize_cluster_task(spec):
    """Re-canonicalize a shard's task dict from the wire.

    JSON turned the codec's tuples into lists; rebuilding through
    :func:`~repro.dse.parallel.make_task` restores the exact canonical
    form every other consumer of the worker boundary uses.
    """
    from repro.dse.parallel import make_task

    return make_task(
        spec["name"], spec["core_names"], spec["subsets"],
        scale=spec["scale"],
        max_invocations=spec["max_invocations"],
        with_amdahl=spec["with_amdahl"])


class FleetWorker:
    """The fleet-membership loop of one ``--worker-of`` service."""

    def __init__(self, service, coordinator_url, node_name=None):
        self.service = service
        self.client = ClusterClient(coordinator_url)
        self.node_name = node_name or \
            f"{socket.gethostname()}:{os.getpid()}"
        self.node_id = None
        self.completed = 0
        self.state = "connecting"
        self._reregister = None

    def to_json(self):
        return {
            "coordinator": self.client.base_url,
            "node_name": self.node_name,
            "node_id": self.node_id,
            "state": self.state,
            "completed": self.completed,
        }

    # ------------------------------------------------------------------
    # Outer loop: register -> (heartbeat || lease) -> re-register.

    async def run(self):
        backoff = BACKOFF_BASE
        while not self.service.draining:
            try:
                info, trace_id = await asyncio.to_thread(
                    self.client.register, self.node_name, os.getpid())
            except CoordinatorUnreachable:
                self.state = "disconnected"
                await asyncio.sleep(backoff)
                backoff = min(BACKOFF_MAX, backoff * 2)
                continue
            backoff = BACKOFF_BASE
            self.node_id = info["node_id"]
            self.state = "registered"
            # The heartbeat task and to_thread calls copy this context.
            with trace_context(trace_id):
                flight_event("cluster.worker_joined",
                             node=self.node_id,
                             coordinator=self.client.base_url)
                self._reregister = asyncio.Event()
                heartbeats = asyncio.create_task(
                    self._heartbeat_loop(info.get(
                        "heartbeat_interval", 1.0)))
                try:
                    await self._lease_loop(info)
                finally:
                    heartbeats.cancel()
                    try:
                        await heartbeats
                    except asyncio.CancelledError:
                        pass

    async def _heartbeat_loop(self, interval):
        """Liveness on its own cadence, independent of evaluations."""
        from repro.resilience.faultinject import (
            consume_heartbeat_drop, heartbeat_delay,
        )

        while True:
            await asyncio.sleep(interval)
            if consume_heartbeat_drop():
                continue            # injected silence
            delay = heartbeat_delay()
            if delay:
                await asyncio.sleep(delay)
            try:
                alive = await asyncio.to_thread(
                    self.client.heartbeat, self.node_id)
            except CoordinatorUnreachable:
                continue            # lease loop owns reconnection
            if not alive:
                self._reregister.set()
                return

    async def _lease_loop(self, info):
        """Pull shards until draining, eviction, or disconnection."""
        poll = info.get("poll_interval", 0.25)
        while not self.service.draining:
            if self._reregister.is_set():
                return              # evicted: outer loop re-registers
            try:
                grant = await asyncio.to_thread(
                    self.client.lease, self.node_id)
            except CoordinatorUnreachable:
                self.state = "disconnected"
                await asyncio.sleep(poll)
                continue
            if grant is None:
                return              # 404: evicted, re-register
            if grant.get("done"):
                self.state = "idle"
                await asyncio.sleep(poll * 4)
                continue
            if grant.get("idle"):
                self.state = "idle"
                await asyncio.sleep(grant.get("poll_interval", poll))
                continue
            await self._run_shard(grant)

    # ------------------------------------------------------------------
    # One shard: faults -> evaluate -> verified submit.

    async def _run_shard(self, grant):
        from repro.cluster.coordinator import record_checksum
        from repro.resilience.faultinject import node_kill

        name, key = grant["name"], grant["key"]
        self.state = f"evaluating:{name}"
        # Deterministic chaos hook: die like an OOM-kill would, with
        # the lease held — the coordinator must recover via expiry.
        if node_kill(name):
            os.kill(os.getpid(), signal.SIGKILL)

        task = normalize_cluster_task(grant["task"])
        body = {"name": name, "key": key}
        try:
            import time
            started = time.perf_counter()
            payload, source = await self.service._evaluate_keyed(
                task, key, blocking=True)
            body.update(
                record=payload, checksum=record_checksum(payload),
                seconds=round(time.perf_counter() - started, 6),
                source=source)
        except EvaluationTimeout as exc:
            body["failure"] = {"kind": "timeout",
                               "error": type(exc).__name__,
                               "message": str(exc), "attempts": 1}
        except Exception as exc:
            body["failure"] = {"kind": "error",
                               "error": type(exc).__name__,
                               "message": str(exc), "attempts": 1}
        delivered = await self._submit(body)
        if delivered and "record" in body:
            self.completed += 1
            counter("repro_cluster_shards_completed_total",
                    "shards this node evaluated and delivered").inc()
        self.state = "registered"

    async def _submit(self, body):
        """Deliver one result with bounded retries.

        Undeliverable results are abandoned (counted): the lease will
        expire and the shard re-dispatches; determinism makes the redo
        free of risk, and the local cache keeps our copy warm.
        """
        backoff = BACKOFF_BASE
        for _attempt in range(RESULT_ATTEMPTS):
            try:
                await asyncio.to_thread(
                    self.client.result, self.node_id, body)
                return True
            except CoordinatorUnreachable:
                await asyncio.sleep(backoff)
                backoff = min(BACKOFF_MAX, backoff * 2)
        counter("repro_cluster_results_abandoned_total",
                "computed results the worker could not deliver").inc()
        flight_event("cluster.result_abandoned",
                     shard=body.get("name"))
        return False
