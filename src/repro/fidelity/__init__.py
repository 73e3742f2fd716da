"""repro.fidelity — model-fidelity validation sweep.

Three pieces, layered:

- :mod:`repro.fidelity.stats` — mergeable error-distribution
  statistics (mean/p50/p95/max, commutative merges, lossless
  snapshots).
- :mod:`repro.fidelity.sweep` — the validation sweep itself: every
  benchmark x core under engine-vs-cycle, every benchmark x BSA under
  fast-vs-detailed (a constant-sensitivity study: the detailed mode
  runs the same transform and engine under a second set of
  constants), sharded per benchmark and byte-stable at any worker
  count.
- :mod:`repro.fidelity.artifact` — the canonical
  ``FIDELITY_<date>.json`` (:mod:`repro.artifacts` conventions) and the
  :func:`check_fidelity` regression gate.
"""

from repro.fidelity.artifact import (
    ACCEL_MEAN_CEILING, ENGINE_MEAN_CEILING, SCHEMA_VERSION,
    canonical_fields, check_fidelity, dumps_fidelity,
    fidelity_filename, format_fidelity, latest_fidelity,
    load_fidelity, make_payload, write_fidelity,
)
from repro.fidelity.stats import ErrorStats, stats_of
from repro.fidelity.sweep import (
    BEHAVIOR_CLASSES, DEFAULT_BENCHES, DEFAULT_BSAS, DEFAULT_CORES,
    DEFAULT_MAX_INVOCATIONS, DEFAULT_SCALE, fidelity_shard,
    run_fidelity_sweep, summarize_shards,
)

__all__ = [
    "ACCEL_MEAN_CEILING",
    "BEHAVIOR_CLASSES",
    "DEFAULT_BENCHES",
    "DEFAULT_BSAS",
    "DEFAULT_CORES",
    "DEFAULT_MAX_INVOCATIONS",
    "DEFAULT_SCALE",
    "ENGINE_MEAN_CEILING",
    "ErrorStats",
    "SCHEMA_VERSION",
    "canonical_fields",
    "check_fidelity",
    "dumps_fidelity",
    "fidelity_filename",
    "fidelity_shard",
    "format_fidelity",
    "latest_fidelity",
    "load_fidelity",
    "make_payload",
    "run_fidelity_sweep",
    "stats_of",
    "summarize_shards",
    "write_fidelity",
]
