"""Fault-tolerant multi-node sweeps.

The cluster layer turns the one-box sweep into a fleet: a coordinator
(`repro coordinate`) owns the sweep definition and the shared
content-addressed store; worker nodes (``repro serve --worker-of``)
pull shard leases, evaluate them with the ordinary service machinery,
and push checksum-verified results back.  Leases expire and
re-dispatch, idle nodes hedge stragglers, and the first verified
result wins — all safe because results are content-keyed and
byte-deterministic.  See ``docs/cluster.md``.
"""

from repro.cluster.backends import (
    CHECKSUM_HEADER, HTTPPeerBackend, TieredCache,
)
from repro.cluster.coordinator import (
    Coordinator, CoordinatorConfig, announce_stderr, record_checksum,
    run_coordinated,
)
from repro.cluster.harness import (
    WorkerHandle, run_cluster, spawn_worker,
)
from repro.cluster.leases import (
    DEFAULT_HEDGE_AFTER, DEFAULT_LEASE_TTL, Lease, LeaseTable,
)
from repro.cluster.registry import (
    DEFAULT_HEARTBEAT_TTL, Node, NodeRegistry,
)
from repro.cluster.worker import (
    ClusterClient, CoordinatorUnreachable, FleetWorker,
    normalize_cluster_task,
)

__all__ = [
    "CHECKSUM_HEADER",
    "ClusterClient",
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorUnreachable",
    "DEFAULT_HEARTBEAT_TTL",
    "DEFAULT_HEDGE_AFTER",
    "DEFAULT_LEASE_TTL",
    "FleetWorker",
    "HTTPPeerBackend",
    "Lease",
    "LeaseTable",
    "Node",
    "NodeRegistry",
    "TieredCache",
    "WorkerHandle",
    "announce_stderr",
    "normalize_cluster_task",
    "record_checksum",
    "run_cluster",
    "run_coordinated",
    "spawn_worker",
]
