"""Cluster chaos harness: real processes, deterministic faults.

Spawns worker nodes as genuine subprocesses (``repro serve
--worker-of URL``) around an in-process coordinator, so chaos tests
exercise the same process boundaries production does: a SIGKILLed
worker really disappears mid-lease, heartbeats really stop, and the
coordinator's TTL eviction + lease expiry is the only recovery path.

Fault injection composes with the per-process ``$REPRO_FAULT_SPEC``
environment contract: each worker can carry its own spec (one worker
``nodekill``s itself, another tears peer-cache reads) while the
coordinator and the remaining fleet run clean.

The proof obligation lives in :func:`run_cluster`'s callers: however
many workers die, the merged artifact's ``dumps_sweep`` bytes must
equal a serial ``run_sweep`` of the same definition.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.cluster.coordinator import run_coordinated

#: Seconds to wait for a worker to exit after SIGTERM before SIGKILL.
REAP_TIMEOUT = 10.0


class WorkerHandle:
    """One spawned worker-node subprocess."""

    def __init__(self, process, node_name, cache_dir, log_path=None):
        self.process = process
        self.node_name = node_name
        self.cache_dir = cache_dir
        self.log_path = log_path

    @property
    def pid(self):
        return self.process.pid

    @property
    def alive(self):
        return self.process.poll() is None

    @property
    def returncode(self):
        return self.process.returncode

    def kill(self):
        """SIGKILL — the chaos primitive; no drain, no goodbye."""
        if self.alive:
            self.process.kill()

    def terminate(self):
        """SIGTERM — the polite shutdown the service drains on."""
        if self.alive:
            self.process.terminate()

    def wait(self, timeout=REAP_TIMEOUT):
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def reap(self):
        """Terminate, wait, escalate to SIGKILL; returns exit code."""
        self.terminate()
        code = self.wait()
        if code is None:
            self.kill()
            code = self.wait()
        return code


def _src_path():
    """The import root of this tree, for subprocess PYTHONPATH."""
    import repro
    return str(Path(repro.__file__).resolve().parents[1])


def spawn_worker(coordinator_url, cache_dir=None, node_name=None,
                 workers=1, pool_mode="thread", fault_spec=None,
                 log_path=None, extra_env=None):
    """Start one ``repro serve --worker-of`` subprocess.

    *cache_dir* becomes the worker's **local** cache tier (each node
    its own, as on a real fleet); the coordinator's store is reached
    through the peer backend.  *fault_spec* seeds that process's
    deterministic fault plan.  Output goes to *log_path* (or is
    discarded) so harness users never deadlock on a full pipe.
    """
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--host", "127.0.0.1", "--port", "0",
           "--workers", str(workers), "--pool", pool_mode,
           "--worker-of", coordinator_url]
    if node_name:
        cmd += ["--node-name", node_name]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]

    env = dict(os.environ)
    src = _src_path()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else os.pathsep.join((src, existing))
    if fault_spec is not None:
        from repro.resilience.faultinject import ENV_VAR
        env[ENV_VAR] = fault_spec
    if extra_env:
        env.update(extra_env)

    if log_path is not None:
        log_handle = open(log_path, "ab")
    else:
        log_handle = subprocess.DEVNULL
    try:
        process = subprocess.Popen(
            cmd, stdout=log_handle, stderr=log_handle, env=env,
            start_new_session=True)
    finally:
        if log_handle is not subprocess.DEVNULL:
            log_handle.close()
    return WorkerHandle(process, node_name, cache_dir,
                        log_path=log_path)


def run_cluster(config, workers=2, worker_cache_dirs=None,
                fault_specs=None, pool_mode="thread",
                pool_workers=1, log_dir=None, on_spawn=None):
    """One coordinated sweep over a freshly spawned worker fleet.

    Runs the coordinator in-process (``run_coordinated``), spawning
    *workers* subprocesses once the port is bound.  ``fault_specs``
    maps worker index -> that process's ``$REPRO_FAULT_SPEC`` (e.g.
    ``{0: "nodekill:task=conv"}`` makes worker 0 SIGKILL itself on
    accepting the ``conv`` lease).  All workers are reaped on the way
    out, success or not.

    Returns ``(sweep, handles)`` — handles carry exit codes so chaos
    tests can assert who died how.
    """
    fault_specs = fault_specs or {}
    handles = []

    def announce(coordinator):
        url = f"http://{coordinator.host}:{coordinator.port}"
        for index in range(workers):
            cache_dir = None
            if worker_cache_dirs is not None:
                cache_dir = worker_cache_dirs[index]
            log_path = None
            if log_dir is not None:
                log_path = Path(log_dir) / f"worker-{index}.log"
            handle = spawn_worker(
                url, cache_dir=cache_dir,
                node_name=f"worker-{index}",
                workers=pool_workers, pool_mode=pool_mode,
                fault_spec=fault_specs.get(index),
                log_path=log_path)
            handles.append(handle)
            if on_spawn is not None:
                on_spawn(handle)

    try:
        sweep = run_coordinated(config, announce=announce)
    finally:
        for handle in handles:
            handle.reap()
    return sweep, handles
