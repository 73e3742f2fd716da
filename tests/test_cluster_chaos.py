"""Cluster chaos: real killed workers, byte-identical artifacts.

The proof obligation of the whole cluster layer: however the fleet
misbehaves — a worker SIGKILLed mid-shard, a peer-cache response torn
mid-transfer — the merged sweep artifact's ``dumps_sweep`` bytes are
identical to a serial one-box run of the same definition.

Workers here are genuine subprocesses (``repro serve --worker-of``)
spawned by the chaos harness; the kill really severs heartbeats and
leases at the process boundary, and heartbeat-TTL eviction plus lease
re-dispatch is the only recovery path.  These tests are the slowest in
the suite (tens of seconds): they evaluate a real 3-benchmark sweep
once serially and once under chaos.
"""

import asyncio
import threading
from contextlib import contextmanager

import pytest

from repro.cluster import (
    CoordinatorConfig, HTTPPeerBackend, TieredCache, run_cluster,
)
from repro.cluster.coordinator import Coordinator
from repro.dse import dumps_sweep, run_sweep
from repro.dse.cache import LocalDirBackend
from repro.resilience.faultinject import ENV_VAR, reset_plan

#: Small but heterogeneous: the synthetic kernel plus two SPEC INT
#: workloads, evaluated at a scale that keeps the test in seconds.
NAMES = ["conv", "164.gzip", "181.mcf"]
SCALE = 0.1

#: A worker carrying this spec SIGKILLs itself on its *first* lease
#: accept, whichever shard that turns out to be — naming every shard
#: keeps the death deterministic without fixing the dispatch order.
KILL_ON_FIRST_LEASE = ",".join(
    f"nodekill:task={name}" for name in NAMES)


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    """The ground truth: one serial sweep, its bytes and its cache."""
    cache_dir = tmp_path_factory.mktemp("serial-cache")
    sweep = run_sweep(names=NAMES, scale=SCALE, with_amdahl=False,
                      cache_dir=cache_dir)
    return dumps_sweep(sweep), cache_dir


@pytest.fixture
def fault_spec(monkeypatch):
    def activate(text):
        monkeypatch.setenv(ENV_VAR, text)
        reset_plan()

    yield activate
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_plan()


@contextmanager
def running_coordinator(cache_dir):
    """A live Coordinator HTTP server on a background thread.

    With the cache fully warm every shard resolves at startup, so the
    server just sits there serving ``/v1/cache/{key}`` — exactly the
    peer any worker's tiered cache talks to.
    """
    config = CoordinatorConfig(port=0, names=NAMES, scale=SCALE,
                               cache_dir=cache_dir)
    coordinator = Coordinator(config)
    ready = threading.Event()
    state = {}

    def runner():
        async def go():
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            await coordinator.start()
            ready.set()
            await state["stop"].wait()
            await coordinator.stop()

        asyncio.run(go())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(30), "coordinator did not come up"
    try:
        yield coordinator
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(30)


def test_sigkilled_worker_mid_sweep_is_byte_identical(
        serial, tmp_path):
    """One of two workers dies on its first shard; bytes match serial.

    Worker 0 SIGKILLs itself the moment it accepts a lease.  The
    coordinator must notice via heartbeat TTL, evict it (preserving
    its flight ring as a blackbox dump), re-dispatch the orphaned
    shard to the survivor, and still emit the identical artifact.
    Worker 1 additionally carries an armed torn-peer-GET fault, so any
    successful peer fetch it makes arrives corrupt — verification must
    contain that too (the dedicated torn-response proof is below).
    """
    serial_bytes, _ = serial
    coord_cache = tmp_path / "coordinator-cache"
    config = CoordinatorConfig(
        port=0, names=NAMES, scale=SCALE, cache_dir=coord_cache,
        lease_ttl=6.0, heartbeat_ttl=2.0, hedge_after=4.0,
        poll_interval=0.1, timeout=240)
    sweep, handles = run_cluster(
        config, workers=2,
        worker_cache_dirs=[tmp_path / "w0", tmp_path / "w1"],
        fault_specs={0: KILL_ON_FIRST_LEASE, 1: "tornpeer:get=0"},
        log_dir=tmp_path)

    # Worker 0 really died by SIGKILL, mid-lease.
    assert handles[0].returncode == -9
    # The coordinator evicted it and preserved the flight ring.
    evict_dumps = list((coord_cache / "blackbox").glob("evict-*.json"))
    assert len(evict_dumps) == 1
    # And the artifact is byte-identical to the serial run anyway.
    assert dumps_sweep(sweep) == serial_bytes
    assert sweep.stats.workers == 2
    assert not sweep.stats.failures


def test_torn_peer_response_quarantines_then_read_repairs(
        serial, tmp_path, fault_spec):
    """A torn cache transfer is a contained miss, then a clean repair.

    Against a live coordinator whose store is warm, the first peer GET
    is torn mid-body: checksum verification must quarantine the bytes
    and report a miss — never serve them.  The retry fetches clean and
    read-repairs the local tier to the coordinator's exact on-disk
    bytes, meta included.
    """
    _serial_bytes, serial_cache = serial
    with running_coordinator(serial_cache) as coordinator:
        url = f"http://{coordinator.host}:{coordinator.port}"
        key = coordinator.keys[NAMES[0]]
        canonical = coordinator.cache.path_for(key).read_bytes()

        local = LocalDirBackend(tmp_path / "local")
        tier = TieredCache(
            local,
            HTTPPeerBackend(url, quarantine_dir=local.quarantine_dir),
            write_through=False)

        fault_spec("tornpeer:get=0")
        # The torn response is quarantined and reported as a miss.
        assert tier.load(key) is None
        assert (local.quarantine_dir / f"peer-{key}.json").exists()
        assert not local.path_for(key).exists()
        # The retry verifies clean and heals the local tier to the
        # coordinator's exact bytes.
        record = tier.load(key)
        assert record is not None
        assert local.path_for(key).read_bytes() == canonical
        # From here on it is a pure local hit (no peer dependency).
        assert tier.load(key) == record


def test_coordinator_stores_each_computed_entry_once(tmp_path):
    """A worker's write-through PUT lands each computed entry on the
    coordinator; the coordinator's own result handler then finds it
    there and writes nothing more (4 writes for 2 entries when it
    stored every result again)."""
    from repro.obs import isolated

    cache_dir = tmp_path / "coordinator-cache"
    config = CoordinatorConfig(port=0, names=["conv", "fft"], scale=SCALE,
                               cache_dir=cache_dir, timeout=240)
    with isolated() as (registry, _):
        sweep, _handles = run_cluster(
            config, workers=1, worker_cache_dirs=[tmp_path / "w0"])
        stores = registry.counter("repro_cache_stores_total").value()
    entries = list(LocalDirBackend(cache_dir).iter_entries())
    assert not sweep.stats.failures
    assert len(entries) == 2
    assert stores == len(entries)
