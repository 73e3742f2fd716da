"""Design-space sweep: benchmarks x cores x BSA subsets.

Each benchmark is simulated once; every (core, subset) ExoCore point is
then composed from per-region estimates by the Oracle scheduler — the
workflow the TDG exists to make tractable (64 design points, paper
Fig. 12).

The sweep engine shards benchmarks across worker processes
(``run_sweep(..., workers=N)``) and memoizes per-benchmark evaluations
in a content-addressed on-disk cache (:mod:`repro.dse.cache`), writing
each entry the moment its benchmark finishes.  The cache is the one
record of finished work: rerunning a killed sweep recomputes only the
benchmarks it lacks, and a warm rerun is pure I/O.  Results are merged
in sorted-benchmark order from canonical record payloads, making the
outcome bit-identical regardless of worker count, shard order, or
cache state.
"""

import itertools
import time

from repro.accel import BSA_LETTER
from repro.accel.base import window_depths
from repro.core_model.config import DSE_CORES
from repro.exocore import (
    evaluate_benchmark, oracle_schedule, amdahl_schedule,
)
from repro.obs import (
    counter, get_recorder, get_registry, histogram, is_enabled, span,
)
from repro.workloads import WORKLOADS

#: All four BSAs in canonical order.
ALL_BSAS = ("simd", "dp_cgra", "ns_df", "trace_p")

#: The 16 BSA subsets of the design space.
ALL_SUBSETS = tuple(
    subset
    for size in range(len(ALL_BSAS) + 1)
    for subset in itertools.combinations(ALL_BSAS, size)
)


def subset_label(subset):
    """Paper Fig. 12 letters: S, D, N, T (empty subset -> '-')."""
    return "".join(BSA_LETTER[b] for b in subset) or "-"


class BenchmarkResult:
    """Compact per-benchmark sweep record (evaluation discarded)."""

    def __init__(self, name, suite, category):
        self.name = name
        self.suite = suite
        self.category = category
        self.baseline = {}       # core -> (cycles, energy_pj, insts)
        self.oracle = {}         # (core, subset) -> schedule summary
        self.amdahl = {}         # core -> schedule summary (full subset)

    def summary(self, core, subset):
        return self.oracle[(core, subset)]

    def speedup(self, core, subset, ref_core=None, ref_cycles=None):
        if ref_cycles is None:
            ref_cycles = self.baseline[ref_core or core][0]
        return ref_cycles / max(1, self.oracle[(core, subset)]["cycles"])


def _summarize(schedule):
    return {
        "cycles": schedule.cycles,
        "energy_pj": schedule.energy_pj,
        "cycles_by": dict(schedule.cycles_by),
        "energy_by": dict(schedule.energy_by),
        "assignment": {key: unit
                       for key, unit in schedule.assignment.items()
                       if unit != "gpp"},
        "offloaded_fraction": schedule.offloaded_fraction,
    }


# ---------------------------------------------------------------------------
# Canonical record (de)serialization — shared by the persistence layer,
# the on-disk cache, and the worker/parent boundary of the pool.

def subset_to_key(subset):
    return ",".join(subset)


def key_to_subset(key):
    return tuple(b for b in key.split(",") if b)


def _summary_to_json(summary):
    """Loop keys are (function, label) tuples; JSON needs strings."""
    out = dict(summary)
    out["assignment"] = {
        f"{function}/{label}": unit
        for (function, label), unit in summary["assignment"].items()
    }
    return out


def _summary_from_json(summary):
    out = dict(summary)
    out["assignment"] = {
        tuple(key.split("/", 1)): unit
        for key, unit in summary["assignment"].items()
    }
    return out


def record_to_json(record):
    """JSON-able payload for one :class:`BenchmarkResult`."""
    return {
        "suite": record.suite,
        "category": record.category,
        "baseline": {core: list(v)
                     for core, v in record.baseline.items()},
        "oracle": {
            f"{core}|{subset_to_key(subset)}": _summary_to_json(summary)
            for (core, subset), summary in record.oracle.items()
        },
        "amdahl": {core: _summary_to_json(summary)
                   for core, summary in record.amdahl.items()},
    }


def record_from_json(name, data, core_names=None, subsets=None):
    """Rebuild a :class:`BenchmarkResult` from :func:`record_to_json`.

    When *core_names* / *subsets* are given, the oracle and amdahl
    maps are rebuilt in canonical (core-major, subset-minor) iteration
    order, so a record reconstructed from the cache or a worker is
    indistinguishable from one computed inline.
    """
    record = BenchmarkResult(name, data["suite"], data["category"])
    record.baseline = {core: tuple(v)
                       for core, v in data["baseline"].items()}
    oracle = {}
    for key, summary in data["oracle"].items():
        core, subset_key = key.split("|", 1)
        oracle[(core, key_to_subset(subset_key))] = \
            _summary_from_json(summary)
    amdahl = {core: _summary_from_json(summary)
              for core, summary in data.get("amdahl", {}).items()}
    if core_names is not None:
        ordered = {}
        for core in core_names:
            for subset in (subsets or ()):
                if (core, subset) in oracle:
                    ordered[(core, subset)] = oracle.pop((core, subset))
        ordered.update(oracle)   # defensively keep any extra points
        oracle = ordered
        amdahl = {core: amdahl[core] for core in core_names
                  if core in amdahl}
    record.oracle = oracle
    record.amdahl = amdahl
    return record


class SweepStats:
    """Structured progress record for one :func:`run_sweep` call.

    One entry per benchmark: where its result came from (``computed``
    or ``cached``) and how long it took, plus sweep-level counters the
    report layer surfaces (:func:`repro.dse.report.sweep_stats_table`).

    ``failures`` lists the benchmarks that failed terminally (as
    :meth:`repro.resilience.TaskFailure.to_json` dicts).  Failures
    live here and in the obs registry only — never in the canonical
    sweep artifact, whose bytes stay deterministic over the surviving
    subset.
    """

    def __init__(self, workers=1, cache_dir=None):
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None \
            else None
        self.entries = []    # {"name", "source", "seconds"}
        self.failures = []   # TaskFailure.to_json() dicts

    def add(self, name, source, seconds):
        self.entries.append(
            {"name": name, "source": source, "seconds": seconds})
        # Timings also flow through the metrics registry so the obs
        # surfaces (prom text, span summaries) see them — but never
        # into the serialized sweep artifact, which stays byte-stable
        # with or without observability enabled.
        counter("repro_sweep_benchmarks_total",
                "benchmarks resolved by the sweep").inc(source=source)
        histogram("repro_sweep_benchmark_seconds",
                  "wall time to resolve one benchmark") \
            .observe(seconds, source=source)

    def add_failure(self, failure):
        """Record one terminal failure (``TaskFailure`` or its dict)."""
        record = failure.to_json() if hasattr(failure, "to_json") \
            else dict(failure)
        self.failures.append(record)
        counter("repro_sweep_failures_total",
                "benchmarks a sweep gave up on after retries") \
            .inc(kind=record.get("kind", "error"))

    @property
    def hits(self):
        return sum(1 for e in self.entries if e["source"] == "cached")

    @property
    def misses(self):
        return sum(1 for e in self.entries if e["source"] == "computed")

    @property
    def total_seconds(self):
        return sum(e["seconds"] for e in self.entries)

    def __repr__(self):
        failed = f", {len(self.failures)} failed" if self.failures \
            else ""
        return (f"<SweepStats {len(self.entries)} benchmarks: "
                f"{self.hits} cached, {self.misses} computed"
                f"{failed}, {self.total_seconds:.2f}s, "
                f"workers={self.workers}>")


class SweepResult:
    """All benchmark records plus sweep-level metadata."""

    def __init__(self, core_names, subsets):
        self.core_names = tuple(core_names)
        self.subsets = tuple(subsets)
        self.results = {}    # benchmark name -> BenchmarkResult
        self.stats = None    # SweepStats, set by run_sweep

    def add(self, record):
        self.results[record.name] = record

    def benchmarks(self, category=None):
        records = sorted(self.results.values(), key=lambda r: r.name)
        if category is not None:
            records = [r for r in records if r.category == category]
        return records

    def __len__(self):
        return len(self.results)


def evaluate_one_benchmark(name, core_names=DSE_CORES,
                           subsets=ALL_SUBSETS, scale=1.0,
                           max_invocations=8, with_amdahl=True):
    """Evaluate one benchmark; the per-benchmark unit of the sweep.

    Builds the TDG, costs every (core, BSA) pair, and composes every
    (core, subset) design point.  Pure function of its arguments —
    this is what makes per-benchmark results cacheable and the sweep
    shardable across processes.  A tuple of window depths
    (*max_invocations*) returns ``{depth: BenchmarkResult}`` from one
    TDG and one evaluation
    (:func:`~repro.exocore.evaluator.evaluate_benchmark`); each record
    equals the one a call at that depth alone returns.
    """
    depths, single = window_depths(max_invocations)
    with span("dse.evaluate_benchmark", benchmark=name, scale=scale):
        workload = WORKLOADS[name]
        tdg = workload.construct_tdg(scale=scale)
        evaluations = evaluate_benchmark(
            tdg, core_names=core_names, bsa_names=ALL_BSAS,
            max_invocations=depths, name=name)
        records = {}
        for depth, evaluation in evaluations.items():
            record = BenchmarkResult(name, workload.suite,
                                     workload.category)
            for core in core_names:
                base = evaluation.baseline(core)
                record.baseline[core] = (base.cycles, base.energy_pj,
                                         len(tdg.trace))
            for core in core_names:
                for subset in subsets:
                    schedule = oracle_schedule(evaluation, core, subset)
                    record.oracle[(core, subset)] = _summarize(schedule)
                if with_amdahl:
                    schedule = amdahl_schedule(evaluation, core,
                                               ALL_BSAS)
                    record.amdahl[core] = _summarize(schedule)
            records[depth] = record
        return records[depths[0]] if single else records


def run_sweep(names=None, core_names=DSE_CORES, subsets=ALL_SUBSETS,
              scale=1.0, max_invocations=8, with_amdahl=True,
              progress=None, workers=1, cache_dir=None, use_cache=None,
              retry_policy=None, task_timeout=None,
              max_pool_restarts=2):
    """Run the design-space exploration.

    Parameters
    ----------
    names:
        Benchmark names (default: all registered workloads).
    scale:
        Workload size scale (tests use < 1 for speed).
    max_invocations:
        Window depth: dynamic invocations of each region costed
        before the rest extrapolate.  A tuple of depths evaluates
        each benchmark once for all of them and returns ``{depth:
        SweepResult}``; every result is byte-identical to a sweep at
        that depth alone, is cached under that sweep's key, and
        shares one ``stats``.
    with_amdahl:
        Also run the Amdahl-tree scheduler for the full BSA set
        (needed by the Fig. 15 comparison).
    progress:
        Optional callback(name) per benchmark (called as each
        benchmark resolves — from cache, computation, or terminal
        failure).
    workers:
        Process-pool width for benchmark evaluation; ``1`` (default)
        runs inline.  Results are bit-identical for any value.
    cache_dir:
        Directory for the content-addressed per-benchmark cache.
        ``None`` with ``use_cache=True`` selects
        :func:`repro.dse.cache.default_cache_dir`.
    use_cache:
        Enable the on-disk cache.  Defaults to ``True`` when
        *cache_dir* is given, else ``False`` (library calls stay
        side-effect-free unless asked).
    retry_policy:
        :class:`repro.resilience.RetryPolicy` for failed evaluations
        (default: 3 attempts, exponential backoff, deterministic
        jitter).
    task_timeout:
        Per-benchmark wall-clock budget in seconds; a task that
        exceeds it has its worker killed and is recorded in
        ``stats.failures`` instead of stalling the sweep.  ``None``
        (default) disables the budget.  Only enforced with
        ``workers > 1``.
    max_pool_restarts:
        Worker-pool deaths tolerated (respawn + re-dispatch) before
        the sweep degrades to inline execution for the remainder.

    Returns a :class:`SweepResult` whose ``stats`` attribute records
    per-benchmark timing, cache hit/miss counts and terminal
    failures.  A failed benchmark never aborts the others: the
    artifact covers the surviving subset deterministically and the
    failures are listed in ``stats.failures``.

    When observability is enabled (:func:`repro.obs.enable`), the
    whole run is wrapped in a ``dse.sweep.run`` span and pool workers
    ship their spans/metrics back for a deterministic merge; none of
    this changes any numeric result or serialized artifact.
    """
    depths, single = window_depths(max_invocations)
    with span("dse.sweep.run", workers=workers) as current:
        sweeps = _run_sweep(
            names=names, core_names=core_names, subsets=subsets,
            scale=scale, depths=depths,
            with_amdahl=with_amdahl, progress=progress,
            workers=workers, cache_dir=cache_dir, use_cache=use_cache,
            retry_policy=retry_policy, task_timeout=task_timeout,
            max_pool_restarts=max_pool_restarts)
        sweep = sweeps[depths[0]]
        current.set(benchmarks=len(sweep), cached=sweep.stats.hits,
                    computed=sweep.stats.misses,
                    failed=len(sweep.stats.failures))
        return sweep if single else sweeps


def _run_sweep(names, core_names, subsets, scale, depths, with_amdahl,
               progress, workers, cache_dir, use_cache, retry_policy,
               task_timeout, max_pool_restarts):
    """``{depth: SweepResult}``, every result sharing one
    :class:`SweepStats` (one entry per benchmark, however many of its
    depths it computed).  Each benchmark is one task, carrying the
    depths it misses in the cache."""
    from repro.dse.cache import (
        SweepCache, cache_key, default_cache_dir, entry_meta,
    )
    from repro.dse.parallel import make_task, run_tasks

    names = list(names) if names is not None else sorted(WORKLOADS)
    names = list(dict.fromkeys(names))      # dedupe, keep given order
    core_names = tuple(core_names)
    subsets = tuple(tuple(s) for s in subsets)
    depths = tuple(int(depth) for depth in depths)

    if use_cache is None:
        use_cache = cache_dir is not None
    cache = None
    if use_cache:
        cache = SweepCache(cache_dir if cache_dir is not None
                           else default_cache_dir())
        # Postmortem dumps land next to the cache this run uses.
        from repro.obs import set_blackbox_dir
        set_blackbox_dir(cache.root / "blackbox")

    stats = SweepStats(workers=workers,
                       cache_dir=cache.root if cache else None)

    payloads = {depth: {} for depth in depths}
    keys = {}           # (name, depth) -> cache key
    pending = []
    for name in names:
        if name not in WORKLOADS:
            raise KeyError(f"unknown workload {name!r}")
        todo = depths
        if cache is not None:
            started = time.perf_counter()
            todo = []
            for depth in depths:
                key = keys[(name, depth)] = cache_key(
                    name, scale, core_names, subsets, depth,
                    with_amdahl)
                payload = cache.load(key)
                if payload is None:
                    todo.append(depth)
                    continue
                payloads[depth][name] = payload
            if not todo:
                stats.add(name, "cached", time.perf_counter() - started)
                if progress is not None:
                    progress(name)
                continue
        pending.append(make_task(
            name, core_names, subsets, scale=scale,
            max_invocations=tuple(todo),
            with_amdahl=with_amdahl))

    def on_result(name, payload, elapsed, obs_payload=None):
        for depth, record in payload.items():
            payloads[depth][name] = record
            # Persist immediately so a rerun after a kill finds every
            # benchmark that finished, not just the ones before a
            # barrier.
            if cache is not None:
                cache.store(keys[(name, depth)], record,
                            meta=entry_meta(name, scale, depth))
        stats.add(name, "computed", elapsed)
        if obs_payload is not None:
            # Worker-side observability, shipped through the task
            # codec.  Counter/histogram merges are commutative sums,
            # so completion order cannot perturb the merged values;
            # worker spans are spliced in ending at the merge point,
            # re-parented under the span that dispatched the fan-out
            # so the exported trace is one connected tree.
            recorder = get_recorder()
            get_registry().merge_snapshot(
                obs_payload.get("metrics") or {})
            spans = obs_payload.get("spans")
            if spans:
                parent = (obs_payload.get("trace") or {}).get("parent")
                recorder.absorb(spans,
                                align_end_us=recorder.now_us(),
                                parent=parent)
        if progress is not None:
            progress(name)

    def on_failure(failure):
        # Contained, never fatal: the failure is carried in the stats
        # while the rest of the sweep proceeds.
        stats.add_failure(failure)
        if progress is not None:
            progress(failure.name)

    run_tasks(pending, workers=workers, on_result=on_result,
              obs=is_enabled(), policy=retry_policy,
              timeout=task_timeout,
              max_pool_restarts=max_pool_restarts,
              on_failure=on_failure)

    sweeps = {depth: merge_sweep(payloads[depth], core_names, subsets,
                                 stats)
              for depth in depths}
    if cache is not None:
        _append_runlog(cache.root, stats, workers)
    return sweeps


def merge_sweep(payloads, core_names, subsets, stats):
    """One :class:`SweepResult` from ``{name: record payload}``.

    Deterministic merge: records enter in sorted-name order, rebuilt
    from canonical payloads, so worker count, shard completion order
    (or which fleet node answered) and cache state cannot perturb the
    output.  Failed benchmarks are simply absent — the artifact over
    the surviving subset is byte-stable, with failures listed in
    *stats*, whose entries and failures are sorted by name here.
    """
    stats.entries.sort(key=lambda e: e["name"])
    stats.failures.sort(key=lambda f: f["name"])
    sweep = SweepResult(core_names, subsets)
    for name in sorted(payloads):
        sweep.add(record_from_json(name, payloads[name], core_names,
                                   subsets))
    sweep.stats = stats
    return sweep


def _append_runlog(cache_root, stats, workers):
    """One run-history line per cached sweep (never raises).

    The longitudinal record behind ``repro obs report``: throughput,
    hit rate and failure counters land in ``<cache>/runlog.jsonl``.
    The entry is derived from stats *after* the sweep is fully built,
    so it cannot perturb results (and the byte-identity tests prove
    it).
    """
    from repro.obs import current_trace_id, get_registry
    from repro.obs.runlog import RunLog, runlog_entry

    computed_seconds = sum(e["seconds"] for e in stats.entries
                           if e["source"] == "computed")
    registry = get_registry()
    entry = runlog_entry(
        "sweep",
        benchmarks=len(stats.entries),
        hits=stats.hits,
        misses=stats.misses,
        failures=len(stats.failures),
        seconds=round(stats.total_seconds, 6),
        evals_per_sec=(round(stats.misses / computed_seconds, 3)
                       if computed_seconds > 0 else None),
        cache_hit_rate=(round(stats.hits / len(stats.entries), 4)
                        if stats.entries else None),
        retries=registry.total("repro_retries_total"),
        timeouts=registry.total("repro_task_timeouts_total"),
        workers=workers,
        trace_id=current_trace_id(),
    )
    RunLog(cache_root).append(entry)
