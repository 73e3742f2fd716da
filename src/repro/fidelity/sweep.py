"""The fidelity validation sweep (``repro validate --fidelity``).

Systematically measures model error across three timing tiers:

- **engine vs cycle** — the TDG timing engine (the fast tier every
  sweep runs on) against the independent cycle-stepped reference
  simulator, per benchmark x core, as IPC and IPE error.
- **fast vs detailed** — each BSA's fast model against its detailed
  mode, per benchmark x BSA, as relative-speedup and
  energy-reduction error over the BSA's base core.  The detailed mode
  runs the same transform through the same engine and changes only
  the BSA's constants, so this tier measures how sensitive results
  are to those constants, not error against detail the fast model
  drops.

Each benchmark is an independent, pure shard (build the TDG once,
share one :class:`~repro.accel.AnalysisContext` across BSAs), so the
sweep fans out across processes and merges in sorted-benchmark order —
the output is byte-identical at any worker count.

The result is the canonical ``FIDELITY_<date>.json`` payload
(:mod:`repro.fidelity.artifact`): every raw point, error
distributions (mean/p50/p95/max) per tier and per behavior class, and
the per-(BSA, class) *bounds*: the worst constant sensitivity, which
:func:`~repro.fidelity.artifact.format_fidelity` prints and no
evaluation path reads.  Error distributions are additionally exported
through the obs metrics registry (``repro_fidelity_*``), never into
the canonical bytes.
"""

import math

from repro.fidelity.stats import ErrorStats, _round
from repro.obs import counter, histogram, span

#: Behavior classes (paper Fig. 11 grouping of the workload suites).
BEHAVIOR_CLASSES = ("regular", "semiregular", "irregular")

#: Default benchmark slice: every behavior class, and at least two
#: benchmarks drawn from every BSA's published validation suite
#: (:data:`repro.validation.ACCEL_VALIDATION_BENCHES`).
DEFAULT_BENCHES = (
    "conv", "stencil", "mm", "kmeans",          # regular
    "cjpeg1", "tpch1",                          # semiregular
    "181.mcf", "164.gzip", "456.hmmer",         # irregular
)

#: Cores for the engine-vs-cycle tier (in-order + both OOO widths the
#: DSE sweeps; the extremes are covered by Table 1 cross-validation).
DEFAULT_CORES = ("IO2", "OOO2", "OOO4")

DEFAULT_BSAS = ("simd", "dp_cgra", "ns_df", "trace_p")

DEFAULT_SCALE = 0.2
DEFAULT_MAX_INVOCATIONS = 4

#: Error-ratio histogram buckets for the obs registry export.
ERROR_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

_POINT_DIGITS = 9


def _point_json(point):
    return {
        "predicted": _round(point.predicted, _POINT_DIGITS),
        "reference": _round(point.reference, _POINT_DIGITS),
        "error": _round(point.error, _POINT_DIGITS),
    }


def fidelity_shard(task):
    """Evaluate one benchmark's fidelity points (worker entry point).

    *task* is a plain picklable dict (``name``, ``cores``, ``bsas``,
    ``scale``, ``max_invocations``).  Returns a JSON-able shard; pure
    function of its arguments, which is what makes the sweep
    shardable and byte-stable at any worker count.
    """
    from repro.accel import AnalysisContext
    from repro.validation import (
        ACCEL_BASE_CORE, accelerator_point, core_point,
    )
    from repro.workloads import WORKLOADS

    name = task["name"]
    workload = WORKLOADS[name]
    with span("fidelity.shard", benchmark=name):
        tdg = workload.construct_tdg(scale=task["scale"])
        shard = {
            "benchmark": name,
            "class": workload.category,
            "core": {},
            "accel": {},
        }
        for core in task["cores"]:
            ipc_point, ipe_point = core_point(name, core, tdg=tdg)
            shard["core"][core] = {
                "ipc": _point_json(ipc_point),
                "ipe": _point_json(ipe_point),
            }
        ctx = AnalysisContext(tdg)
        for bsa in task["bsas"]:
            point = accelerator_point(
                bsa, name, ctx,
                max_invocations=task["max_invocations"])
            if point is None:
                continue
            speedup_point, energy_point = point
            shard["accel"][bsa] = {
                "base": ACCEL_BASE_CORE[bsa],
                "speedup": _point_json(speedup_point),
                "energy": _point_json(energy_point),
            }
        return shard


def _observe(pair, metric, behavior, error):
    """Export one error sample through the obs metrics registry."""
    counter("repro_fidelity_points_total",
            "fidelity validation points measured").inc(pair=pair)
    histogram("repro_fidelity_error_ratio",
              "relative model error per fidelity point",
              buckets=ERROR_BUCKETS).observe(
        error, pair=pair, metric=metric, behavior=behavior)


class _StatsGroup:
    """overall + by-class ErrorStats for one (pair, metric)."""

    def __init__(self):
        self.overall = ErrorStats()
        self.by_class = {}

    def add(self, behavior, error):
        self.overall.add(error)
        self.by_class.setdefault(behavior, ErrorStats()).add(error)

    def to_json(self):
        return {
            "overall": self.overall.to_json(),
            "by_class": {behavior: stats.to_json()
                         for behavior, stats
                         in sorted(self.by_class.items())},
        }


def summarize_shards(shards):
    """Error distributions + sensitivity bounds from merged shards.

    *shards* is ``{benchmark: shard}``; iteration is over sorted
    benchmark names so float accumulation order — and therefore every
    output byte — is independent of shard completion order.
    """
    core_groups = {"ipc": _StatsGroup(), "ipe": _StatsGroup()}
    accel_groups = {}    # bsa -> {"speedup"/"energy": _StatsGroup}
    bound_stats = {}     # (bsa, class) -> ErrorStats over both metrics

    for name in sorted(shards):
        shard = shards[name]
        behavior = shard["class"]
        for core in sorted(shard["core"]):
            for metric in ("ipc", "ipe"):
                error = float(shard["core"][core][metric]["error"])
                core_groups[metric].add(behavior, error)
                _observe("engine_vs_cycle", metric, behavior, error)
        for bsa in sorted(shard["accel"]):
            groups = accel_groups.setdefault(
                bsa, {"speedup": _StatsGroup(),
                      "energy": _StatsGroup()})
            for metric in ("speedup", "energy"):
                error = float(shard["accel"][bsa][metric]["error"])
                groups[metric].add(behavior, error)
                bound_stats.setdefault(
                    (bsa, behavior), ErrorStats()).add(error)
                _observe("fast_vs_detailed", metric, behavior, error)

    summary = {
        "engine_vs_cycle": {metric: group.to_json()
                            for metric, group in core_groups.items()},
        "fast_vs_detailed": {
            bsa: {metric: group.to_json()
                  for metric, group in groups.items()}
            for bsa, groups in sorted(accel_groups.items())
        },
    }
    # The worst observed fast-vs-detailed error per (BSA, behavior
    # class), across both metrics.  Max, not p95 — class sample sets
    # are small; it rounds UP, so every measured point provably sits
    # at or under its serialized bound.
    bounds = {}
    for (bsa, behavior), stats in sorted(bound_stats.items()):
        bound = stats.max
        if not math.isinf(bound):
            bound = math.ceil(bound * 10**6) / 10**6
        bounds.setdefault(bsa, {})[behavior] = _round(bound, 6)
    return summary, bounds


def run_fidelity_sweep(benchmarks=DEFAULT_BENCHES, cores=DEFAULT_CORES,
                       bsas=DEFAULT_BSAS, scale=DEFAULT_SCALE,
                       max_invocations=DEFAULT_MAX_INVOCATIONS,
                       workers=1, progress=None):
    """Run the sweep; returns the full canonical FIDELITY payload.

    ``workers > 1`` shards benchmarks across worker processes through
    :class:`~repro.resilience.runner.ResilientRunner`; the merge is in
    sorted-name order, so the payload is byte-identical for any worker
    count.
    """
    from repro.fidelity.artifact import make_payload
    from repro.resilience.runner import ResilientRunner
    from repro.workloads import WORKLOADS

    benchmarks = list(dict.fromkeys(benchmarks))
    unknown = [n for n in benchmarks if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown benchmarks {unknown!r}")
    cores = tuple(cores)
    bsas = tuple(bsas)
    tasks = [{"name": name, "cores": cores, "bsas": bsas,
              "scale": float(scale),
              "max_invocations": int(max_invocations)}
             for name in benchmarks]

    shards = {}

    def collect(shard):
        shards[shard["benchmark"]] = shard
        if progress is not None:
            progress(shard["benchmark"])

    with span("fidelity.sweep", benchmarks=len(tasks),
              workers=workers):
        ResilientRunner(fidelity_shard,
                        workers=min(workers, len(tasks))) \
            .run(tasks, on_result=collect)
        summary, bounds = summarize_shards(shards)

    config = {
        "benchmarks": sorted(shards),
        "cores": list(cores),
        "bsas": list(bsas),
        "scale": float(scale),
        "max_invocations": int(max_invocations),
    }
    points = {
        "core": {name: shards[name]["core"] for name in sorted(shards)},
        "accel": {name: shards[name]["accel"]
                  for name in sorted(shards)},
    }
    classes = {name: shards[name]["class"] for name in sorted(shards)}
    return make_payload(config=config, classes=classes, points=points,
                        summary=summary, bounds=bounds)
