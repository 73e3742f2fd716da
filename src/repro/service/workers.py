"""Warm worker pool: persistent workers for engine evaluations.

The one-shot CLI pays interpreter startup + package import + workload
construction per evaluation; the service keeps warm worker processes
instead, reusing the exact task codec and worker entry point of the
sweep's pool (:mod:`repro.dse.parallel`) so service results are the
same payloads the sweep computes and the cache stores.

The workers belong to a :class:`~repro.resilience.pool.PoolSupervisor`
— the same one the sweep runner drives — so the pool heals the same
way: a worker crash (``BrokenProcessPool``) respawns the pool and the
evaluation retries, an evaluation that exceeds ``task_timeout`` (timed
from dispatch to a free worker) has its workers killed and surfaces
as :class:`~repro.resilience.policy.EvaluationTimeout` (HTTP 504 at
the route layer), and after ``max_pool_restarts`` deaths the pool
degrades to a single sacrificial worker (the event loop must never
run engine code itself).  Restarts and degradation are surfaced
through ``/v1/healthz``.
"""

import asyncio
from concurrent.futures.process import BrokenProcessPool

from repro.dse.parallel import evaluate_payload
from repro.resilience.policy import EvaluationTimeout
from repro.resilience.pool import (
    PoolSupervisor, record_failure, record_retry,
)


def _warm_worker(_index):
    """Pay the modeling-package import (and source-tree digest) once
    per worker at startup instead of on the first request."""
    import repro.dse.sweep                      # noqa: F401
    from repro.dse.cache import engine_version_hash
    return engine_version_hash()


class EvaluationPool(PoolSupervisor):
    """Async adapter: a :class:`PoolSupervisor` of evaluation workers
    awaited from the service's event loop.

    *mode* is ``"process"`` (production: true parallelism, isolation
    from engine crashes) or ``"thread"`` (tests / debugging: same
    process, works with in-memory stub evaluators).  *evaluator* is
    ``task -> (payload, seconds)`` and defaults to the sweep's worker
    entry point; a process pool requires it to be picklable.

    *task_timeout* bounds one evaluation's wall clock from dispatch
    (process mode kills the hung worker; thread mode can only abandon
    it).  *max_pool_restarts* bounds crash retries and the deaths
    before degrading to a single-worker pool (``degraded`` flag).
    """

    def __init__(self, workers=1, mode="process", evaluator=None,
                 task_timeout=None, max_pool_restarts=2):
        super().__init__(workers, mode=mode, timeout=task_timeout,
                         max_pool_restarts=max_pool_restarts)
        self._evaluator = evaluator if evaluator is not None \
            else evaluate_payload
        self._turn = None           # evaluations waiting for a worker

    async def start(self, warm=True):
        if warm and self.mode == "process":
            pool = self._pool()
            await asyncio.gather(*(
                asyncio.wrap_future(pool.submit(_warm_worker, index))
                for index in range(self.workers)))

    async def evaluate(self, task):
        """Run one evaluation on a warm worker; ``(payload, seconds)``.

        Waits for a free worker, then retries across pool respawns
        after a worker crash (bounded by ``max_pool_restarts + 1``
        tries); raises :class:`EvaluationTimeout` when ``task_timeout``
        expires.
        """
        if self._turn is None:
            self._turn = asyncio.Condition()
        name = task.get("name", "?")
        tries = 0
        while True:
            async with self._turn:
                await self._turn.wait_for(self.has_slot)
                generation = self.generation
                # Flag the try the same way the sweep runner does:
                # fault injection (and worker-side reporting) keys on it.
                future = self.submit(
                    self._evaluator,
                    dict(task, attempt=tries,
                         pooled=(self.mode == "process")),
                    name, tries)
            try:
                return await asyncio.wait_for(
                    asyncio.wrap_future(future), self.timeout)
            except asyncio.TimeoutError:
                self.kill([name], generation)
                raise EvaluationTimeout(
                    f"evaluation of {name} exceeded "
                    f"{self.timeout}s wall clock") from None
            except BrokenProcessPool:
                tries += 1
                self.died(generation)
                if tries > self.max_pool_restarts:
                    record_failure(name, "pool", tries,
                                   "BrokenProcessPool")
                    raise
                record_retry(name, "pool", tries, "BrokenProcessPool")
            finally:
                async with self._turn:
                    self._turn.notify_all()
