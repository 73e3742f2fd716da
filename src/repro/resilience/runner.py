"""Fault-tolerant runner for embarrassingly parallel tasks.

Drives tasks over a :class:`~repro.resilience.pool.PoolSupervisor`
(which owns the worker processes) with the failure handling a bare
pool lacks:

- **Per-task wall-clock timeouts.**  On expiry the supervisor kills
  the pool, the expired task is recorded (or retried, per policy) and
  every innocent in-flight task is re-dispatched on a fresh pool at no
  attempt cost.
- **Pool-death recovery.**  ``BrokenProcessPool`` (worker OOM-killed,
  segfaulted, ``os._exit``) respawns the pool and re-dispatches the
  in-flight tasks, charging each one attempt — the culprit must not
  crash-loop forever, and the policy's attempt budget bounds it.
- **One inline path.**  With one worker — asked for, or left after the
  supervisor degrades the pool following ``max_pool_restarts`` deaths
  — tasks run one at a time in the parent.  Inline execution skips
  ``crash``/``hang`` fault injection and cannot enforce timeouts, but
  it always terminates.
- **Bounded retries** with deterministic backoff via
  :class:`~repro.resilience.policy.RetryPolicy`.

Every event is counted in the :mod:`repro.obs` registry (see
:mod:`repro.resilience.pool`) so chaos tests and operators see exactly
what the layer absorbed.
"""

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

from repro.resilience.policy import (
    EvaluationTimeout, RetryPolicy, TaskFailure,
)
from repro.resilience.pool import (
    PoolSupervisor, record_failure, record_retry,
)

#: Floor for the event-loop wait slice — avoids busy-spinning while
#: still checking deadlines promptly.
_MIN_WAIT = 0.02


class _TaskState:
    """Book-keeping for one task across submissions and retries."""

    __slots__ = ("task", "key", "attempts", "eligible_at",
                 "started_at", "seconds")

    def __init__(self, task, key):
        self.task = task
        self.key = key
        self.attempts = 0           # tries already made
        self.eligible_at = 0.0      # backoff gate (clock units)
        self.started_at = 0.0
        self.seconds = 0.0          # wall time burned on failed tries


def _default_key(task):
    return task["name"] if isinstance(task, dict) and "name" in task \
        else repr(task)


class ResilientRunner:
    """Drive *worker_fn* over tasks with retries/timeouts/pool recovery.

    *worker_fn* must be picklable (module-level) and is called with a
    shallow copy of the task dict extended with ``attempt`` (0-based
    try number) and ``pooled`` (True in pool workers, absent inline) —
    the hooks fault injection keys on.  Results are delivered through
    ``on_result(raw_return_value)`` — in completion order from a pool,
    in submission order inline (``workers <= 1``), where a retried
    task reruns before the next one starts; terminal failures through
    ``on_failure(TaskFailure)``.  When *on_failure* is ``None`` the
    first terminal failure re-raises instead (the fail-fast behavior
    of a bare pool).
    """

    def __init__(self, worker_fn, workers=2, policy=None, timeout=None,
                 max_pool_restarts=2, key_fn=_default_key,
                 clock=time.monotonic, sleep=time.sleep):
        self.worker_fn = worker_fn
        self.policy = policy if policy is not None else RetryPolicy()
        self.key_fn = key_fn
        self.clock = clock
        self.sleep = sleep
        self.pool = PoolSupervisor(workers, timeout=timeout,
                                   max_pool_restarts=max_pool_restarts)

    def run(self, tasks, on_result=None, on_failure=None):
        """Run every task to completion or terminal failure.

        Returns the list of :class:`TaskFailure` records (empty on a
        fully clean run).
        """
        states = [_TaskState(task, self.key_fn(task)) for task in tasks]
        pending = deque(states)
        waiting = []                # states in backoff
        running = {}                # future -> state
        failures = []

        def fail(state, exc, kind):
            record_failure(state.key, kind, state.attempts,
                           type(exc).__name__)
            if on_failure is None:
                raise exc
            failure = TaskFailure.from_exception(
                state.key, exc, state.attempts, seconds=state.seconds,
                kind=kind)
            failures.append(failure)
            on_failure(failure)

        def handle_error(state, exc, kind="error"):
            state.attempts += 1
            if self.policy.should_retry(exc, state.attempts, kind=kind):
                record_retry(state.key, kind, state.attempts,
                             type(exc).__name__)
                state.eligible_at = self.clock() + self.policy.delay(
                    state.key, state.attempts)
                waiting.append(state)
            else:
                fail(state, exc, kind)

        def reap(future, state):
            """Consume one settled future; False on pool breakage."""
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                state.seconds += self.clock() - state.started_at
                handle_error(state, exc, kind="pool")
                return False
            except Exception as exc:
                state.seconds += self.clock() - state.started_at
                handle_error(state, exc)
            else:
                if on_result is not None:
                    on_result(result)
            return True

        try:
            while pending or waiting or running:
                if self.pool.workers <= 1:
                    self._step_inline(pending, waiting, handle_error,
                                      on_result)
                    continue

                now = self.clock()
                for state in [s for s in waiting
                              if s.eligible_at <= now]:
                    waiting.remove(state)
                    pending.append(state)

                while pending and self.pool.has_slot():
                    state = pending.popleft()
                    state.started_at = self.clock()
                    task = dict(state.task, attempt=state.attempts,
                                pooled=True)
                    future = self.pool.submit(self.worker_fn, task,
                                              state.key, state.attempts)
                    running[future] = state

                if not running:
                    # Everything is gated on backoff.
                    soonest = min(s.eligible_at for s in waiting)
                    self.sleep(max(_MIN_WAIT, soonest - self.clock()))
                    continue

                done, _ = futures_wait(
                    set(running), timeout=self._wait_slice(running,
                                                           waiting),
                    return_when=FIRST_COMPLETED)

                broken = False
                for future in done:
                    state = running.pop(future)
                    broken |= not reap(future, state)
                if broken:
                    self._on_pool_death(running, pending, reap)
                    continue
                if self.pool.timeout is not None:
                    self._expire_timeouts(running, pending,
                                          handle_error)
        finally:
            self.pool.shutdown()
        return failures

    def _wait_slice(self, running, waiting):
        candidates = []
        now = self.clock()
        if self.pool.timeout is not None and running:
            soonest = min(s.started_at for s in running.values()) \
                + self.pool.timeout
            candidates.append(soonest - now + 0.01)
        if waiting:
            candidates.append(min(s.eligible_at for s in waiting)
                              - now)
        if not candidates:
            return None                 # block until a completion
        return max(_MIN_WAIT, min(candidates))

    def _on_pool_death(self, running, pending, reap):
        """One worker died and broke the pool: the supervisor respawns
        (or degrades) it.

        In-flight siblings that finished before the breakage still
        deliver their results; the rest are charged one attempt
        (the culprit is unknowable) and re-dispatched.
        """
        self.pool.died(self.pool.generation)
        for future, state in list(running.items()):
            del running[future]
            if future.done():
                reap(future, state)
            else:
                future.cancel()
                state.attempts += 1
                record_retry(state.key, "pool", state.attempts,
                             "BrokenProcessPool")
                pending.append(state)

    def _expire_timeouts(self, running, pending, handle_error):
        """Tasks past their budget: the supervisor kills the pool, and
        innocent in-flight tasks are re-dispatched free of charge."""
        now = self.clock()
        expired = [state for state in running.values()
                   if now - state.started_at > self.pool.timeout]
        if not expired:
            return
        self.pool.kill([state.key for state in expired],
                       self.pool.generation)
        for future, state in list(running.items()):
            del running[future]
            future.cancel()
            if state in expired:
                state.seconds += now - state.started_at
                handle_error(
                    state,
                    EvaluationTimeout(
                        f"{state.key} exceeded {self.pool.timeout}s "
                        "wall clock (worker killed)"),
                    kind="timeout")
            else:
                pending.append(state)

    def _step_inline(self, pending, waiting, handle_error, on_result):
        """Run one task in the parent process.

        A task in backoff goes first, so a retry reruns before the next
        task starts and results keep submission order.
        """
        if waiting:
            state = min(waiting, key=lambda s: s.eligible_at)
            waiting.remove(state)
            self.sleep(max(0.0, state.eligible_at - self.clock()))
        else:
            state = pending.popleft()
        state.started_at = self.clock()
        try:
            # No "pooled" flag: crash/hang injection must not take the
            # parent down, and timeouts are unenforceable here.
            result = self.worker_fn(dict(state.task,
                                         attempt=state.attempts))
        except Exception as exc:
            state.seconds += self.clock() - state.started_at
            handle_error(state, exc)
        else:
            if on_result is not None:
                on_result(result)

