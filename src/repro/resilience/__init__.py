"""repro.resilience — fault tolerance for the execution layer.

Stdlib-only building blocks shared by the sweep engine
(:mod:`repro.dse.parallel` / :mod:`repro.dse.sweep`) and the
evaluation service (:mod:`repro.service.workers`):

- :mod:`repro.resilience.policy` — :class:`RetryPolicy` (bounded
  attempts, exponential backoff, deterministic jitter, retryable vs
  fatal classification) and the :class:`TaskFailure` record.
- :mod:`repro.resilience.pool` — :class:`PoolSupervisor`, the one
  owner of evaluation worker pools: lazy spawn, dispatch capped at the
  worker count (timeouts run from dispatch), hung-pool kill,
  generation-guarded respawn, degradation to one worker, and the
  pool/timeout/retry counters and flight events.
- :mod:`repro.resilience.runner` — :class:`ResilientRunner`, the batch
  adapter over a supervisor (sweep and fidelity sweep): retries,
  innocent re-dispatch, the ``TaskFailure`` contract, and one inline
  path for ``workers <= 1`` and a degraded pool.  The service's
  :class:`~repro.service.workers.EvaluationPool` is the async adapter
  over the same supervisor.
- :mod:`repro.resilience.checkpoint` — atomic sweep progress
  manifests behind ``repro sweep --resume``.
- :mod:`repro.resilience.faultinject` — the deterministic
  fault-injection harness (``$REPRO_FAULT_SPEC``) chaos tests and the
  CI chaos job drive.

See ``docs/resilience.md`` for the failure model and guarantees.
"""

from repro.resilience.policy import (
    EvaluationTimeout, RetryPolicy, TaskFailure, TransientError,
)
from repro.resilience.pool import PoolSupervisor
from repro.resilience.runner import ResilientRunner
from repro.resilience.checkpoint import SweepCheckpoint, sweep_signature
from repro.resilience.faultinject import (
    FaultSpecError, parse_fault_spec,
)

__all__ = [
    "EvaluationTimeout",
    "RetryPolicy",
    "TaskFailure",
    "TransientError",
    "PoolSupervisor",
    "ResilientRunner",
    "SweepCheckpoint",
    "sweep_signature",
    "FaultSpecError",
    "parse_fault_spec",
]
