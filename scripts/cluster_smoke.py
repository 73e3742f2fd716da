#!/usr/bin/env python
"""Cluster chaos smoke: a killed worker must not change one byte (CI).

Runs the same sweep twice — once serially in-process, once through a
coordinator with two real worker subprocesses where worker 0 SIGKILLs
itself on its first lease accept — and asserts the cluster layer's
invariants:

1. worker 0 really died by SIGKILL (exit ``-9``), mid-lease;
2. the coordinator evicted it on heartbeat TTL and preserved its
   flight ring as a blackbox dump (``evict-<node_id>.json``);
3. the orphaned shard was re-dispatched and the merged artifact's
   ``dumps_sweep`` bytes are identical to the serial run;
4. the run reads as one trace: the coordinator's request spans for
   the workers' register, lease and result calls all carry the trace
   id of the run's ``cluster.coordinate`` span (a worker subprocess
   runs inside its own trace, so its lease and result calls carry the
   run's id only if it adopted the id echoed on register);
5. a torn peer-cache response (injected against the now-warm
   coordinator store) is quarantined and reported as a miss, and the
   retry read-repairs the local tier to the coordinator's exact
   on-disk bytes.

Exits nonzero with a message on any violation.

Usage: python scripts/cluster_smoke.py [--names conv,164.gzip,181.mcf]
                                       [--scale 0.1]
"""

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path


#: The fleet calls every worker makes, as the coordinator's request
#: spans name their endpoints.
FLEET_ENDPOINTS = ("/v1/nodes/register", "/v1/nodes/{id}/lease",
                   "/v1/nodes/{id}/result")


def fail(message):
    print(f"[cluster] FAIL: {message}", file=sys.stderr)
    return 1


def stray_traces(spans):
    """``{endpoint: traces}`` of fleet calls not traced under the run.

    An endpoint that was never called shows an empty set.
    """
    (run_trace,) = {record.get("trace") for record in spans
                    if record["name"] == "cluster.coordinate"}
    traces = {endpoint: set() for endpoint in FLEET_ENDPOINTS}
    for record in spans:
        if record["name"] == "service.request" \
                and record["args"].get("endpoint") in traces:
            traces[record["args"]["endpoint"]].add(record.get("trace"))
    return {endpoint: seen for endpoint, seen in traces.items()
            if seen != {run_trace}}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--names", default="conv,164.gzip,181.mcf")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    names = [n for n in args.names.split(",") if n]

    from repro.cluster import (
        CoordinatorConfig, HTTPPeerBackend, TieredCache, run_cluster,
    )
    from repro.dse import dumps_sweep, run_sweep
    from repro.dse.cache import LocalDirBackend
    from repro.obs import enable, get_recorder
    from repro.resilience.faultinject import ENV_VAR, reset_plan

    workdir = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    try:
        print(f"[cluster] serial reference sweep: {names}")
        serial_cache = workdir / "serial-cache"
        serial = dumps_sweep(run_sweep(
            names=names, scale=args.scale, with_amdahl=False,
            cache_dir=serial_cache))

        kill = ",".join(f"nodekill:task={name}" for name in names)
        print(f"[cluster] coordinated sweep, 2 workers, "
              f"worker 0 rigged: {kill}")
        coord_cache = workdir / "coordinator-cache"
        config = CoordinatorConfig(
            port=0, names=names, scale=args.scale,
            cache_dir=coord_cache, lease_ttl=6.0, heartbeat_ttl=2.0,
            hedge_after=4.0, poll_interval=0.1, timeout=args.timeout)
        enable(reset=True)
        sweep, handles = run_cluster(
            config, workers=2,
            worker_cache_dirs=[workdir / "w0", workdir / "w1"],
            fault_specs={0: kill}, log_dir=workdir)

        if handles[0].returncode != -9:
            return fail(f"worker 0 should have died by SIGKILL, "
                        f"exit={handles[0].returncode}")
        dumps = list((coord_cache / "blackbox").glob("evict-*.json"))
        if len(dumps) != 1:
            return fail(f"expected exactly one eviction blackbox "
                        f"dump, found {[d.name for d in dumps]}")
        if sweep.stats.failures:
            return fail(f"chaos sweep recorded failures: "
                        f"{sweep.stats.failures}")
        if dumps_sweep(sweep) != serial:
            return fail("killed-worker artifact differs from the "
                        "serial run")
        print(f"[cluster] recovered byte-identical "
              f"({len(serial)} bytes); eviction dump {dumps[0].name}")
        strays = stray_traces(get_recorder().export())
        if strays:
            return fail(f"fleet calls outside the run's trace: "
                        f"{strays}")
        print("[cluster] register, lease and result calls all carry "
              "the run's trace id")

        print("[cluster] torn peer-cache response against the warm "
              "store")
        os.environ[ENV_VAR] = "tornpeer:get=0"
        reset_plan()
        import asyncio
        import threading

        from repro.cluster.coordinator import Coordinator

        coordinator = Coordinator(CoordinatorConfig(
            port=0, names=names, scale=args.scale,
            cache_dir=coord_cache))
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
        if not ready.wait(30):
            return fail("warm coordinator did not come up")
        try:
            url = f"http://{coordinator.host}:{coordinator.port}"
            key = coordinator.keys[names[0]]
            canonical = coordinator.cache.path_for(key).read_bytes()
            local = LocalDirBackend(workdir / "repair-local")
            tier = TieredCache(
                local, HTTPPeerBackend(
                    url, quarantine_dir=local.quarantine_dir),
                write_through=False)
            if tier.load(key) is not None:
                return fail("torn peer response was served as a hit")
            if not (local.quarantine_dir
                    / f"peer-{key}.json").exists():
                return fail("torn peer response was not quarantined")
            if tier.load(key) is None:
                return fail("clean retry did not recover the entry")
            if local.path_for(key).read_bytes() != canonical:
                return fail("read-repaired entry is not byte-"
                            "identical to the coordinator's")
            print("[cluster] torn response quarantined; retry "
                  "read-repaired byte-identical")
        finally:
            state["loop"].call_soon_threadsafe(state["stop"].set)
            thread.join(30)
    finally:
        os.environ.pop(ENV_VAR, None)
        reset_plan()
        shutil.rmtree(workdir, ignore_errors=True)
    print("[cluster] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
