"""Unit and integration tests for the cluster layer.

Lease mechanics, node registry eviction, and the peer-cache backends
are tested with injected clocks and a stub HTTP peer, so every timing
and corruption scenario is deterministic.  The server-level tests run
a real ``EvaluationService`` and a real ``Coordinator`` on ephemeral
ports and exercise the peer-cache wire protocol over genuine HTTP.  Process-level chaos
(SIGKILLed workers) lives in ``test_cluster_chaos.py``.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster.backends import (
    CHECKSUM_HEADER, HTTPPeerBackend, TieredCache,
)
from repro.cluster.coordinator import record_checksum
from repro.cluster.leases import LeaseTable
from repro.cluster.registry import NodeRegistry
from repro.cluster.worker import normalize_cluster_task
from repro.dse.cache import (
    LocalDirBackend, dumps_entry, entry_checksum, entry_payload,
)
from repro.obs import set_blackbox_dir
from repro.resilience.faultinject import ENV_VAR, reset_plan


@pytest.fixture
def fault_spec(monkeypatch):
    """Set ``$REPRO_FAULT_SPEC`` and reload the plan (reset after)."""
    def activate(text):
        monkeypatch.setenv(ENV_VAR, text)
        reset_plan()

    yield activate
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_plan()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Lease table.

class TestLeaseTable:
    def make(self, names=("a", "b", "c"), ttl=10.0, hedge=5.0):
        clock = FakeClock()
        table = LeaseTable(list(names), lease_ttl=ttl,
                           hedge_after=hedge, clock=clock)
        return table, clock

    def test_claims_grant_in_submission_order(self):
        table, _ = self.make()
        assert table.claim("n1").name == "a"
        assert table.claim("n2").name == "b"
        assert table.claim("n1").name == "c"
        assert table.counts()["pending"] == 0

    def test_expired_lease_requeues_shard(self):
        table, clock = self.make(ttl=10.0)
        table.claim("n1")
        clock.advance(11.0)
        table.expire()
        # "a" re-queued behind the untouched shards.
        assert table.pending == ["b", "c", "a"]
        table.claim("n2")
        table.claim("n2")
        lease = table.claim("n2")
        assert lease.name == "a" and not lease.hedged

    def test_release_node_requeues_only_its_shards(self):
        table, _ = self.make()
        table.claim("n1")            # a
        table.claim("n2")            # b
        table.release_node("n1")
        assert "a" in table.pending and "b" not in table.pending

    def test_hedging_waits_for_hedge_after(self):
        table, clock = self.make(names=("a",), hedge=5.0)
        table.claim("n1")
        clock.advance(2.0)
        assert table.claim("n2") is None       # too young to hedge
        clock.advance(4.0)
        lease = table.claim("n2")
        assert lease is not None and lease.hedged and lease.name == "a"

    def test_hedging_never_duplicates_onto_the_holder(self):
        table, clock = self.make(names=("a",), hedge=1.0)
        table.claim("n1")
        clock.advance(2.0)
        assert table.claim("n1") is None

    def test_hedging_prefers_fewest_holders_then_oldest(self):
        table, clock = self.make(names=("a", "b"), hedge=1.0)
        table.claim("n1")            # a at t=0
        clock.advance(1.0)
        table.claim("n2")            # b at t=1
        clock.advance(1.5)
        lease = table.claim("n3")    # both eligible, both 1 holder:
        assert lease.name == "a"     # oldest wins
        lease = table.claim("n4")    # a has 2 holders now
        assert lease.name == "b"

    def test_first_verified_result_wins(self):
        table, clock = self.make(names=("a",), hedge=1.0)
        table.claim("n1")
        clock.advance(2.0)
        table.claim("n2")            # hedged duplicate
        assert table.complete("a", "n2", {"v": 1}) is True
        assert table.complete("a", "n1", {"v": 1}) is False
        assert table.completed_by["a"] == "n2"
        assert table.all_done

    def test_completion_while_requeued_clears_pending(self):
        table, clock = self.make(names=("a",), ttl=1.0)
        table.claim("n1")
        clock.advance(2.0)
        table.expire()               # back to pending
        assert table.pending == ["a"]
        # The original holder answers late but verified: still wins.
        assert table.complete("a", "n1", {"v": 1}) is True
        assert table.pending == []
        assert table.all_done


# ---------------------------------------------------------------------------
# Node registry.

class TestNodeRegistry:
    def test_node_ids_are_deterministic(self):
        a = NodeRegistry(clock=FakeClock())
        b = NodeRegistry(clock=FakeClock())
        ids_a = [a.register("w0"), a.register("w1")]
        ids_b = [b.register("w0"), b.register("w1")]
        assert ids_a == ids_b
        assert ids_a[0].startswith("w1-")
        assert ids_a[1].startswith("w2-")

    def test_heartbeat_unknown_node_asks_reregister(self):
        registry = NodeRegistry(clock=FakeClock())
        assert registry.heartbeat("nope") is False
        node_id = registry.register("w0")
        assert registry.heartbeat(node_id) is True

    def test_stale_heartbeat_evicts_and_dumps_blackbox(self, tmp_path):
        set_blackbox_dir(tmp_path)
        try:
            clock = FakeClock()
            registry = NodeRegistry(heartbeat_ttl=5.0, clock=clock)
            dead = registry.register("gone")
            live = registry.register("here")
            clock.advance(4.0)
            registry.heartbeat(live)
            clock.advance(2.0)       # dead is 6s stale, live 2s
            assert registry.sweep_dead() == [dead]
            assert not registry.is_live(dead)
            assert registry.is_live(live)
            assert dead in registry.evicted
            dump = tmp_path / f"evict-{dead}.json"
            assert dump.exists()
            payload = json.loads(dump.read_text())
            assert payload["reason"] == f"node-evicted:{dead}"
        finally:
            set_blackbox_dir(None)

    def test_to_json_separates_live_and_evicted(self):
        clock = FakeClock()
        registry = NodeRegistry(heartbeat_ttl=1.0, clock=clock)
        registry.register("w0")
        clock.advance(2.0)
        registry.sweep_dead()
        snapshot = registry.to_json()
        assert snapshot["live"] == []
        assert len(snapshot["evicted"]) == 1
        assert snapshot["evicted"][0]["evicted"] is True


# ---------------------------------------------------------------------------
# HTTP peer backend against a stub peer.

class _StubState:
    def __init__(self):
        self.entries = {}        # key -> bytes
        self.checksums = {}      # key -> header override
        self.puts = []           # (key, bytes, checksum header)


class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _key(self):
        return self.path.rsplit("/", 1)[-1]

    def do_GET(self):
        state = self.server.state
        key = self._key()
        blob = state.entries.get(key)
        if blob is None:
            self.send_response(404)
            self.end_headers()
            return
        checksum = state.checksums.get(key, entry_checksum(blob))
        self.send_response(200)
        self.send_header(CHECKSUM_HEADER, checksum)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_PUT(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        state.puts.append((self._key(), body,
                           self.headers.get(CHECKSUM_HEADER)))
        payload = b'{"stored": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@contextmanager
def stub_peer():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.state = _StubState()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", server.state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)


def make_entry(key, record, meta=None):
    return dumps_entry(entry_payload(key, record, meta=meta)) \
        .encode("utf-8")


KEY = "ab" * 32
RECORD = {"benchmark": "conv", "oracle": {"IO2|simd": [1, 2]}}


class TestHTTPPeerBackend:
    def test_verified_hit_returns_record(self, tmp_path):
        with stub_peer() as (url, state):
            state.entries[KEY] = make_entry(KEY, RECORD,
                                            meta={"benchmark": "conv"})
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            assert backend.load(KEY) == RECORD
            payload = backend.load_entry(KEY)
            assert payload["meta"] == {"benchmark": "conv"}
            assert KEY in backend

    def test_missing_key_is_a_miss(self, tmp_path):
        with stub_peer() as (url, _state):
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            assert backend.load(KEY) is None
            assert KEY not in backend

    def test_dead_peer_degrades_to_miss(self, tmp_path):
        backend = HTTPPeerBackend("http://127.0.0.1:9",
                                  quarantine_dir=tmp_path, timeout=0.5)
        assert backend.load(KEY) is None
        assert backend.store(KEY, RECORD) is False

    def test_checksum_mismatch_quarantines_response(self, tmp_path):
        with stub_peer() as (url, state):
            blob = make_entry(KEY, RECORD)
            state.entries[KEY] = blob
            state.checksums[KEY] = "0" * 64
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            assert backend.load(KEY) is None
            preserved = tmp_path / f"peer-{KEY}.json"
            assert preserved.read_bytes() == blob

    def test_unparseable_response_quarantines(self, tmp_path):
        with stub_peer() as (url, state):
            blob = b"{torn nonsense"
            state.entries[KEY] = blob
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            assert backend.load(KEY) is None
            assert (tmp_path / f"peer-{KEY}.json").read_bytes() == blob

    def test_wrong_key_identity_quarantines(self, tmp_path):
        with stub_peer() as (url, state):
            state.entries[KEY] = make_entry("cd" * 32, RECORD)
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            assert backend.load(KEY) is None
            assert (tmp_path / f"peer-{KEY}.json").exists()

    def test_torn_peer_get_fault_quarantines_then_recovers(
            self, tmp_path, fault_spec):
        fault_spec("tornpeer:get=0")   # GET indices are zero-based
        with stub_peer() as (url, state):
            state.entries[KEY] = make_entry(KEY, RECORD)
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            # First successful GET is torn mid-body client-side.
            assert backend.load(KEY) is None
            assert (tmp_path / f"peer-{KEY}.json").exists()
            # The fault is one-shot: the retry verifies clean.
            assert backend.load(KEY) == RECORD

    def test_store_puts_canonical_checksummed_blob(self, tmp_path):
        with stub_peer() as (url, state):
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            assert backend.store(KEY, RECORD,
                                 meta={"benchmark": "conv"}) is True
            (key, body, checksum), = state.puts
            assert key == KEY
            assert body == make_entry(KEY, RECORD,
                                      meta={"benchmark": "conv"})
            assert checksum == entry_checksum(body)


class TestTieredCache:
    def test_local_hit_never_touches_the_peer(self, tmp_path):
        local = LocalDirBackend(tmp_path / "local")
        local.store(KEY, RECORD)
        # A dead peer URL proves the peer is not consulted.
        tier = TieredCache(local, HTTPPeerBackend(
            "http://127.0.0.1:9", timeout=0.5))
        assert tier.load(KEY) == RECORD

    def test_peer_hit_read_repairs_byte_identical_local(self, tmp_path):
        meta = {"benchmark": "conv", "scale": 0.1}
        with stub_peer() as (url, state):
            state.entries[KEY] = make_entry(KEY, RECORD, meta=meta)
            local = LocalDirBackend(tmp_path / "local")
            tier = TieredCache(
                local, HTTPPeerBackend(
                    url, quarantine_dir=local.quarantine_dir),
                write_through=False)
            assert tier.load(KEY) == RECORD
            # The repaired local entry is byte-identical to the
            # peer's canonical blob, meta included.
            assert local.path_for(KEY).read_bytes() \
                == make_entry(KEY, RECORD, meta=meta)
            # Next load is a pure local hit.
            state.entries.clear()
            assert tier.load(KEY) == RECORD

    def test_peer_without_load_entry_still_read_repairs(self, tmp_path):
        class RecordOnlyPeer:
            def load(self, key):
                return RECORD if key == KEY else None

            def store(self, key, record, meta=None):
                pass

        local = LocalDirBackend(tmp_path / "local")
        tier = TieredCache(local, RecordOnlyPeer(), write_through=False)
        assert tier.load(KEY) == RECORD
        assert local.load(KEY) == RECORD

    def test_both_tiers_missing_is_a_miss(self, tmp_path):
        with stub_peer() as (url, _state):
            tier = TieredCache(LocalDirBackend(tmp_path / "local"),
                               HTTPPeerBackend(url))
            assert tier.load(KEY) is None

    def test_store_writes_through_to_the_peer(self, tmp_path):
        with stub_peer() as (url, state):
            local = LocalDirBackend(tmp_path / "local")
            tier = TieredCache(local, HTTPPeerBackend(url))
            tier.store(KEY, RECORD)
            assert local.load(KEY) == RECORD
            (key, body, _checksum), = state.puts
            assert key == KEY and body == make_entry(KEY, RECORD)

    def test_root_and_paths_delegate_to_local(self, tmp_path):
        local = LocalDirBackend(tmp_path / "local")
        tier = TieredCache(local, HTTPPeerBackend("http://x"))
        assert tier.root == local.root
        assert tier.quarantine_dir == local.quarantine_dir
        assert tier.path_for(KEY) == local.path_for(KEY)


# ---------------------------------------------------------------------------
# Quarantine cap boundary (the CAP-th entry is kept, CAP+1-th is not).

class TestQuarantineCapBoundary:
    def corrupt_and_load(self, cache, index):
        key = f"{index:064x}"
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{torn")
        with pytest.warns(RuntimeWarning):
            assert cache.load(key) is None
        return path

    def test_cap_th_entry_is_preserved_cap_plus_one_is_deleted(
            self, tmp_path):
        cache = LocalDirBackend(tmp_path)
        cap = cache.QUARANTINE_CAP
        # Pre-fill quarantine to one below the cap.
        cache.quarantine_dir.mkdir(parents=True)
        for index in range(cap - 1):
            (cache.quarantine_dir / f"old-{index}.json").write_text("x")

        # The CAP-th corrupt entry still fits: moved aside, preserved.
        path = self.corrupt_and_load(cache, 1)
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()
        assert sum(1 for p in cache.quarantine_dir.iterdir()) == cap

        # The CAP+1-th is deleted instead (never preserved, never
        # left behind to be re-served), and the count stays at cap.
        path = self.corrupt_and_load(cache, 2)
        assert not path.exists()
        assert not (cache.quarantine_dir / path.name).exists()
        assert sum(1 for p in cache.quarantine_dir.iterdir()) == cap

    def test_peer_quarantine_respects_its_cap(self, tmp_path):
        from repro.cluster.backends import PEER_QUARANTINE_CAP
        with stub_peer() as (url, state):
            backend = HTTPPeerBackend(url, quarantine_dir=tmp_path)
            tmp_path.mkdir(exist_ok=True)
            for index in range(PEER_QUARANTINE_CAP):
                (tmp_path / f"old-{index}.json").write_text("x")
            state.entries[KEY] = b"{torn"
            assert backend.load(KEY) is None
            assert not (tmp_path / f"peer-{KEY}.json").exists()


# ---------------------------------------------------------------------------
# The server side of the peer-cache protocol, on both node types.

@contextmanager
def running_node(kind, cache_dir):
    """The URL of a live service (cache on) or coordinator."""
    if kind == "coordinator":
        from tests.test_cluster_chaos import running_coordinator
        with running_coordinator(cache_dir) as coordinator:
            yield f"http://127.0.0.1:{coordinator.port}"
        return
    from repro.service import ServiceConfig
    from tests.test_service import StubEvaluator, running_service

    config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                           cache_dir=cache_dir, use_cache=True)
    with running_service(config, evaluator=StubEvaluator()) \
            as (service, _client):
        yield f"http://127.0.0.1:{service.port}"


def http(method, url, body=None, headers=None):
    """``(status, body bytes)`` without raising on 4xx/5xx."""
    request = urllib.request.Request(url, data=body, method=method,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


@pytest.mark.parametrize("kind", ["service", "coordinator"])
def test_peer_cache_protocol_on_both_servers(kind, tmp_path):
    """Both node types answer the protocol through one handler pair:
    the same status codes, a good PUT read back byte-identical, and a
    checksum-mismatched PUT counted as ``put-checksum`` corruption."""
    from repro.obs import get_registry

    def put(url, blob, checksum=None):
        headers = {"Content-Type": "application/json"}
        if checksum is not None:
            headers[CHECKSUM_HEADER] = checksum
        return http("PUT", url, blob, headers)[0]

    blob = make_entry(KEY, RECORD, meta={"benchmark": "conv"})
    stale = json.dumps({"format": 99, "key": KEY, "record": RECORD},
                       sort_keys=True).encode()

    def corrupt():
        return get_registry().value("repro_peer_cache_corrupt_total",
                                    why="put-checksum")

    with running_node(kind, tmp_path / kind) as base:
        url = f"{base}/v1/cache/{KEY}"
        statuses = {"get-miss": http("GET", url)[0]}
        before = corrupt()
        statuses["put-checksum"] = put(url, blob, checksum="0" * 64)
        assert corrupt() == before + 1
        statuses["put-unparseable"] = put(url, b"{torn nonsense")
        statuses["put-wrong-key"] = put(
            url, make_entry("cd" * 32, RECORD))
        statuses["put-wrong-format"] = put(url, stale)
        assert http("GET", url)[0] == 404, "a refused PUT stored"
        statuses["put-good"] = put(url, blob, entry_checksum(blob))
        status, body = http("GET", url)
        statuses["get-hit"] = status
        assert body == blob
        payload = HTTPPeerBackend(base).load_entry(KEY)
        assert dumps_entry(payload).encode("utf-8") == blob
        statuses["wrong-method"] = http("POST", url, b"{}")[0]
    assert statuses == {
        "get-miss": 404, "put-checksum": 400, "put-unparseable": 400,
        "put-wrong-key": 400, "put-wrong-format": 400, "put-good": 200,
        "get-hit": 200, "wrong-method": 405,
    }


def test_coordinator_answers_400_to_a_malformed_body(tmp_path):
    with running_node("coordinator", tmp_path) as base:
        status, body = http(
            "POST", f"{base}/v1/nodes/register", b"{not json",
            {"Content-Type": "application/json"})
    assert status == 400
    assert "invalid JSON body" in json.loads(body)["error"]


def test_coordinator_honours_the_callers_trace_context(tmp_path):
    """A request that brings a ``traceparent`` is served inside that
    trace, and the answer echoes its id in both trace headers."""
    from repro.obs import format_traceparent, parse_traceparent

    trace_id = "cafe0123cafe0123"
    with running_node("coordinator", tmp_path) as base:
        request = urllib.request.Request(
            f"{base}/v1/nodes/register", data=b'{"name": "w0"}',
            method="POST",
            headers={"Content-Type": "application/json",
                     "traceparent": format_traceparent(trace_id, 7)})
        with urllib.request.urlopen(request, timeout=30) as response:
            headers = response.headers
    assert headers["X-Trace-Id"] == trace_id
    assert parse_traceparent(headers["traceparent"]) == trace_id


def test_peer_cache_transfers_carry_the_callers_trace(tmp_path):
    """The peer client's PUT and GET are served in the caller's trace:
    the service's request spans for ``/v1/cache/{key}`` carry it."""
    from repro.obs import isolated, trace_context

    with isolated() as (_registry, recorder), \
            running_node("service", tmp_path) as base:
        peer = HTTPPeerBackend(base)
        with trace_context() as trace_id:
            assert peer.store(KEY, RECORD)
            assert peer.load_entry(KEY)["record"] == RECORD
        transfers = [
            (record["args"]["method"], record.get("trace"))
            for record in recorder.export()
            if record["name"] == "service.request"
            and record["args"].get("endpoint") == "/v1/cache/{key}"]
    assert transfers == [("PUT", trace_id), ("GET", trace_id)]


class SilentPeer:
    """A socket that accepts HTTP requests and never answers them until
    :meth:`release`, which drops every held connection and every later
    one, as a peer that died would."""

    def __init__(self):
        self._server = socket.socket()
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(16)
        self._server.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._server.getsockname()[1]}"
        self.requests = []
        self._held = []
        self._released = threading.Event()
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while not self._closed.is_set():
            try:
                conn, _ = self._server.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            self.requests.append(conn.recv(65536).split(b"\r\n", 1)[0])
            if self._released.is_set():
                conn.close()
            else:
                self._held.append(conn)

    def wait_for(self, prefix, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(line.startswith(prefix) for line in self.requests):
                return True
            time.sleep(0.01)
        return False

    def release(self):
        self._released.set()
        for conn in self._held:
            conn.close()

    def close(self):
        self.release()
        self._closed.set()
        self._thread.join(5)
        self._server.close()


def test_a_silent_peer_does_not_stall_the_workers_event_loop(tmp_path):
    """A fleet worker's peer-cache GET waits off the event loop: while
    an evaluate waits on a coordinator that accepts and never answers,
    the worker's healthz still answers at once."""
    from repro.service import ServiceConfig
    from tests.test_service import StubEvaluator, post_raw, running_service

    peer = SilentPeer()
    config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                           cache_dir=tmp_path, use_cache=True,
                           worker_of=peer.url)
    answers = []
    try:
        with running_service(config, evaluator=StubEvaluator()) \
                as (service, _client):
            base = f"http://127.0.0.1:{service.port}"
            poster = threading.Thread(target=lambda: answers.append(
                post_raw(f"{base}/v1/evaluate", {"benchmark": "conv"})))
            poster.start()
            assert peer.wait_for(b"GET /v1/cache/"), peer.requests
            started = time.perf_counter()
            status, _ = http("GET", f"{base}/v1/healthz")
            elapsed = time.perf_counter() - started
            peer.release()      # the GET fails: a peer miss
            poster.join(30)
    finally:
        peer.close()
    assert status == 200
    assert elapsed < 1.0, f"healthz took {elapsed:.1f} s"
    assert [(status, body["source"]) for status, _, body in answers] \
        == [(200, "computed")]


# ---------------------------------------------------------------------------
# Result checksums and task normalization.

class TestWireFormats:
    def test_record_checksum_is_order_insensitive(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert record_checksum(a) == record_checksum(b)
        assert record_checksum(a) != record_checksum({"x": 2})

    def test_normalize_cluster_task_roundtrips_json(self):
        from repro.dse.parallel import make_task
        from repro.dse.sweep import ALL_SUBSETS
        from repro.core_model.config import DSE_CORES

        task = make_task("conv", DSE_CORES, ALL_SUBSETS, scale=0.25,
                         max_invocations=4, with_amdahl=False)
        wired = json.loads(json.dumps(task))
        assert normalize_cluster_task(wired) == task
