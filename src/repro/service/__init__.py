"""repro.service — the long-lived evaluation service.

A stdlib-only asyncio HTTP server in front of the TDG engine: instead
of paying process startup, package import and workload construction
per CLI invocation, a warm worker pool serves ``/v1/evaluate`` and
``/v1/sweep`` queries with the content-addressed cache, in-flight
request coalescing, bounded-queue backpressure (429 + Retry-After)
and graceful drain.  Start one with ``repro serve``; talk to it with
:class:`repro.service.client.ServiceClient`.

Module map
----------
- :mod:`repro.service.http` -- HTTP/1.1 listener + the one client transport
- :mod:`repro.service.app` -- routes, request lifecycle, drain logic
- :mod:`repro.service.jobs` -- compute slots (backpressure) + job table
- :mod:`repro.service.coalesce` -- in-flight request coalescing
- :mod:`repro.service.workers` -- persistent warm evaluation pool
- :mod:`repro.service.metrics` -- counters + latency histograms
- :mod:`repro.service.client` -- retrying HTTP client
"""

from repro.service.app import EvaluationService, ServiceConfig, serve
from repro.service.client import (
    CircuitOpen, JobFailed, ServiceClient, ServiceError,
)
from repro.service.jobs import QueueFull

__all__ = [
    "EvaluationService", "ServiceConfig", "serve",
    "ServiceClient", "ServiceError", "JobFailed", "CircuitOpen",
    "QueueFull",
]
