"""One owner of evaluation worker pools: spawn, kill, respawn, degrade.

The sweep's :class:`~repro.resilience.runner.ResilientRunner` (which
also runs the fidelity sweep) and the service's
:class:`~repro.service.workers.EvaluationPool` both dispatch through a
:class:`PoolSupervisor`; this module is the only code that builds,
kills or replaces a worker executor, and it defines the pool, timeout
and retry counters and the ``task.*``/``pool.*`` flight events both
share.  Retry *policy* stays with the callers.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.obs import counter, dump_blackbox, flight_event


def record_retry(key, kind, attempt, error):
    """Count and record one scheduled retry of task *key*."""
    counter("repro_retries_total",
            "task retries scheduled by the fault-tolerance layer") \
        .inc(kind=kind)
    flight_event("task.retry", task=key, kind=kind, attempt=attempt,
                 error=error)


def record_failure(key, kind, attempts, error):
    """Count, record and dump one terminal task failure."""
    counter("repro_task_failures_total",
            "tasks that failed after all retries").inc(kind=kind)
    flight_event("task.failed", task=key, kind=kind, attempts=attempts,
                 error=error)
    # A terminal failure is exactly what the flight recorder exists
    # for: leave the postmortem before moving on.
    dump_blackbox(f"task-failed:{key}")


class PoolSupervisor:
    """Owns one worker executor.

    - The executor is built lazily on first :meth:`submit`: a process
      pool, or with *mode* ``"thread"`` a thread pool for tests and
      in-memory stub evaluators.
    - Callers submit only while :meth:`has_slot`, so a submitted task
      is a running task and its *timeout* budget (seconds, or None)
      starts at dispatch, never behind an executor queue.
    - :meth:`kill` cancels hung tasks the only way a process pool
      allows: it terminates the processes and replaces the pool.
    - :meth:`died` replaces a broken pool once per *generation*,
      however many callers saw it break, and after more than
      *max_pool_restarts* deaths degrades it to one worker (timeout
      kills never count).  The runner then runs inline; the service
      keeps one sacrificial worker.

    Synchronous and single-threaded (the runner's drive loop, or one
    event loop), so the generation check is its only guard.
    """

    def __init__(self, workers=1, mode="process", timeout=None,
                 max_pool_restarts=2):
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.workers = max(1, int(workers))
        self.mode = mode
        self.timeout = timeout
        self.max_pool_restarts = max(0, int(max_pool_restarts))
        self.generation = 0
        self.restarts = 0           # replacements: deaths + timeout kills
        self.deaths = 0
        self.degraded = False
        self._executor = None
        self._running = {}          # future -> task key, this generation

    def _pool(self):
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-eval")
        return self._executor

    def has_slot(self):
        """Whether a worker is free for :meth:`submit`."""
        self._running = {future: key
                         for future, key in self._running.items()
                         if not future.done()}
        return len(self._running) < self.workers

    def submit(self, fn, task, key, attempt=0):
        """Dispatch ``fn(task)`` to a free worker; returns its future."""
        flight_event("task.dispatch", task=key, attempt=attempt)
        future = self._pool().submit(fn, task)
        self._running[future] = key
        return future

    def kill(self, keys, generation):
        """Tasks *keys* of pool *generation* hung: count them and, if
        that pool is still current, kill its processes and replace it."""
        counter("repro_task_timeouts_total",
                "tasks cancelled at their wall-clock budget") \
            .inc(len(keys))
        for key in keys:
            flight_event("task.timeout", task=key,
                         budget_seconds=self.timeout)
        dump_blackbox("task-timeout")
        if generation == self.generation:
            self._replace("timeout", kill=True)

    def died(self, generation):
        """A worker died and broke pool *generation*: replace it."""
        if generation != self.generation:
            return
        self.deaths += 1
        flight_event("pool.death", deaths=self.deaths,
                     in_flight=list(self._running.values()))
        self._replace("death")
        if self.deaths > self.max_pool_restarts and not self.degraded:
            self.degraded = True
            self.workers = 1
            counter("repro_pool_inline_fallback_total",
                    "pools degraded to one worker after repeated "
                    "deaths").inc()
            flight_event("pool.degraded", deaths=self.deaths)
            dump_blackbox("pool-degraded")

    def _replace(self, reason, kill=False):
        """Discard the executor; the next submit builds a fresh one."""
        self.generation += 1
        self.restarts += 1
        counter("repro_pool_restarts_total",
                "worker pools discarded and respawned") \
            .inc(reason=reason)
        flight_event("pool.respawn", reason=reason,
                     restarts=self.restarts)
        self._running = {}
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            # A hung worker never returns; terminating the processes
            # is the only cancellation a ProcessPoolExecutor has.
            # (_processes is private but stable across 3.9-3.13, and
            # the stdlib offers no public kill switch.)  A thread
            # pool has none: its hung thread is abandoned.
            procs = getattr(executor, "_processes", None) or {}
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def shutdown(self, wait=True):
        executor, self._executor = self._executor, None
        self._running = {}
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
