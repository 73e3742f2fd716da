"""Aggregation + text tables regenerating the paper's figures.

All relative metrics are normalized the way Figure 12 normalizes: each
design point is reported relative to the dual-issue in-order core
(IO2) baseline, using geometric means across benchmarks.
"""

import math

from repro.dse.sweep import ALL_BSAS, subset_label
from repro.energy.area import exocore_area
from repro.core_model import core_by_name

#: Reference design for relative metrics (paper Fig. 12: "all points
#: are relative to the dual-issue in-order (IO2) design").
REFERENCE_CORE = "IO2"

FULL_SUBSET = ALL_BSAS


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _point_metrics(sweep, core, subset, category=None):
    """Geomean (speedup, energy_eff) of a design point vs IO2 base."""
    speedups = []
    energy_effs = []
    for record in sweep.benchmarks(category):
        ref_cycles, ref_energy, _ = record.baseline[REFERENCE_CORE]
        summary = record.summary(core, subset)
        speedups.append(ref_cycles / max(1, summary["cycles"]))
        energy_effs.append(ref_energy / max(1.0, summary["energy_pj"]))
    return geomean(speedups), geomean(energy_effs)


def fig10_table(sweep, category=None):
    """Figure 10/3 series: per (accel-line, core) relative performance
    and energy efficiency.  Lines: none, each single BSA, full ExoCore.
    """
    lines = [()] + [(b,) for b in ALL_BSAS] + [FULL_SUBSET]
    rows = []
    for subset in lines:
        if subset == ():
            label = "gen-core-only"
        elif subset == FULL_SUBSET:
            label = "exocore-full"
        else:
            label = subset[0]
        for core in sweep.core_names:
            speedup, eff = _point_metrics(sweep, core, subset, category)
            rows.append({
                "line": label,
                "core": core,
                "rel_performance": speedup,
                "rel_energy_eff": eff,
            })
    return rows


def fig11_table(sweep):
    """Figure 11: the Fig. 10 series split by workload category."""
    return {
        category: fig10_table(sweep, category)
        for category in ("regular", "semiregular", "irregular")
    }


def fig12_table(sweep):
    """Figure 12: all 64 design points — speedup, energy efficiency
    and area relative to IO2, sorted by speedup (as the paper plots)."""
    ref_area = exocore_area(core_by_name(REFERENCE_CORE), ())
    rows = []
    for core in sweep.core_names:
        for subset in sweep.subsets:
            speedup, eff = _point_metrics(sweep, core, subset)
            area = exocore_area(core_by_name(core), subset)
            rows.append({
                "design": f"{core}-{subset_label(subset)}",
                "core": core,
                "subset": subset,
                "speedup": speedup,
                "energy_eff": eff,
                "area": area / ref_area,
            })
    rows.sort(key=lambda r: r["speedup"])
    return rows


def fig13_table(sweep, core="OOO2"):
    """Figure 13: per-benchmark execution-time and energy breakdown of
    the full ExoCore, normalized to the core alone."""
    units = ("gpp", "simd", "dp_cgra", "ns_df", "trace_p")
    rows = []
    for record in sweep.benchmarks():
        base_cycles, base_energy, _ = record.baseline[core]
        summary = record.summary(core, FULL_SUBSET)
        row = {"benchmark": record.name, "suite": record.suite}
        for unit in units:
            row[f"time_{unit}"] = summary["cycles_by"].get(unit, 0) \
                / max(1, base_cycles)
            row[f"energy_{unit}"] = summary["energy_by"].get(unit, 0.0) \
                / max(1.0, base_energy)
        row["rel_time"] = summary["cycles"] / max(1, base_cycles)
        row["rel_energy"] = summary["energy_pj"] / max(1.0, base_energy)
        rows.append(row)
    return rows


def fig15_table(sweep, core="OOO2", suite="mediabench"):
    """Figure 15: Oracle vs Amdahl-tree scheduler, relative exec time
    and energy vs the core alone."""
    rows = []
    for record in sweep.benchmarks():
        if suite is not None and record.suite != suite:
            continue
        if core not in record.amdahl:
            continue
        base_cycles, base_energy, _ = record.baseline[core]
        oracle = record.summary(core, FULL_SUBSET)
        amdahl = record.amdahl[core]
        rows.append({
            "benchmark": record.name,
            "oracle_time": oracle["cycles"] / max(1, base_cycles),
            "oracle_energy": oracle["energy_pj"] / max(1.0, base_energy),
            "amdahl_time": amdahl["cycles"] / max(1, base_cycles),
            "amdahl_energy": amdahl["energy_pj"] / max(1.0, base_energy),
        })
    return rows


def pareto_frontier(rows, x_key="speedup", y_key="energy_eff",
                    tie_key="design"):
    """Non-dominated subset of *rows* when maximizing both metrics.

    A row is dominated when another row is at least as good on both
    axes and strictly better on one.  Duplicate coordinate pairs keep
    exactly one representative (the smallest *tie_key*, or input order
    when the key is absent), so the frontier is a set of distinct
    operating points.  Returned rows are sorted by ascending *x_key*
    (the order the paper's frontier plots use); the sort — and thus
    the whole function — is deterministic for any input order.
    """
    def sort_key(indexed):
        index, row = indexed
        tie = row.get(tie_key)
        return (-row[x_key], -row[y_key],
                (str(tie),) if tie is not None else (), index)

    frontier = []
    best_y = None
    seen = set()
    # Descending x: a row is non-dominated iff its y strictly exceeds
    # every y seen so far (single O(n log n) scan).
    for _index, row in sorted(enumerate(rows), key=sort_key):
        coords = (row[x_key], row[y_key])
        if coords in seen:
            continue
        if best_y is None or row[y_key] > best_y:
            frontier.append(row)
            best_y = row[y_key]
            seen.add(coords)
    frontier.reverse()
    return frontier


def frontier_table(rows, x_key="speedup", y_key="energy_eff",
                   tie_key="design"):
    """Pareto-frontier rows for :func:`render_table`.

    Filters *rows* (any dicts carrying *x_key*/*y_key*, e.g.
    :func:`fig12_table` design points or ``repro explore`` records)
    down to the speedup/energy-efficiency frontier and annotates each
    survivor with its ``frontier_rank`` (1 = lowest speedup end).
    Used by both ``repro sweep`` and ``repro explore`` output.
    """
    frontier = pareto_frontier(rows, x_key=x_key, y_key=y_key,
                               tie_key=tie_key)
    return [dict(row, frontier_rank=rank)
            for rank, row in enumerate(frontier, start=1)]


def sweep_stats_table(sweep_or_stats):
    """Per-benchmark progress rows for a sweep's :class:`SweepStats`.

    Accepts a :class:`~repro.dse.sweep.SweepResult` (whose ``stats``
    attribute :func:`~repro.dse.sweep.run_sweep` fills in) or a
    :class:`~repro.dse.sweep.SweepStats` directly.  Returns one row
    per benchmark — where the result came from and how long it took —
    suitable for :func:`render_table`.
    """
    stats = getattr(sweep_or_stats, "stats", sweep_or_stats)
    if stats is None:
        return []
    return [{"benchmark": entry["name"],
             "source": entry["source"],
             "seconds": entry["seconds"]}
            for entry in sorted(stats.entries,
                                key=lambda e: e["name"])]


def sweep_stats_summary(sweep_or_stats):
    """Sweep-level counters: cache hits/misses, workers, wall time."""
    stats = getattr(sweep_or_stats, "stats", sweep_or_stats)
    if stats is None:
        return {}
    return {
        "benchmarks": len(stats.entries),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "failures": len(stats.failures),
        "workers": stats.workers,
        "cache_dir": stats.cache_dir,
        "total_seconds": stats.total_seconds,
    }


def sweep_failures_table(sweep_or_stats):
    """One row per benchmark the sweep gave up on, for
    :func:`render_table` — failure kind, error class and attempt
    count, straight from :attr:`~repro.dse.sweep.SweepStats.failures`.
    """
    stats = getattr(sweep_or_stats, "stats", sweep_or_stats)
    if stats is None:
        return []
    return [{"benchmark": failure["name"],
             "kind": failure["kind"],
             "error": failure["error"],
             "attempts": failure["attempts"],
             "seconds": failure["seconds"]}
            for failure in stats.failures]


def service_metrics_table(snapshot):
    """Per-endpoint rows from an evaluation-service metrics snapshot.

    Input is the JSON object ``GET /v1/metrics`` returns (see
    :meth:`repro.service.metrics.Metrics.snapshot`); output is one row
    per endpoint — request/error counts and latency mean/p95 — for
    :func:`render_table`.  ``repro serve`` prints this on shutdown.
    """
    rows = []
    for endpoint, entry in sorted(
            (snapshot or {}).get("endpoints", {}).items()):
        latency = entry.get("latency", {})
        rows.append({
            "endpoint": endpoint,
            "requests": entry.get("requests", 0),
            "errors": entry.get("errors", 0),
            "mean_ms": latency.get("mean_ms", 0.0),
            "p95_ms": latency.get("p95_ms", 0.0),
            "max_ms": latency.get("max_ms", 0.0),
        })
    return rows


def span_summary_table(recorder_or_records=None, top=10):
    """Top-N spans by total wall time, for :func:`render_table`.

    Accepts a :class:`repro.obs.Recorder` (default: the global one) or
    a plain list of span records.  One row per span name — call count,
    total/self/max milliseconds — which is what ``repro sweep
    --timings`` and the service's shutdown report print.
    """
    from repro.obs import span_summary
    rows = span_summary(recorder_or_records, top=top)
    return [{"span": row["span"],
             "count": row["count"],
             "total_ms": row["total_ms"],
             "self_ms": row["self_ms"],
             "max_ms": row["max_ms"]}
            for row in rows]


def render_table(rows, columns=None, float_format="{:.3f}"):
    """Plain-text table rendering for the benchmark harness output."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = "  ".join(f"{c:>14s}" for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                value = float_format.format(value)
            cells.append(f"{str(value):>14s}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
