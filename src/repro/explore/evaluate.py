"""Exact evaluation of design points through the TDG sweep engine.

The surrogate loop periodically spends budget on *exact* evaluations:
full TDG-model runs through :func:`repro.dse.sweep.run_sweep`, the
same engine (and the same content-addressed cache) the Fig. 12 sweep
uses.  Like the paper's TDG, one simulation of a benchmark costs every
configuration: the first point makes one ``run_sweep`` call over all
of the space's cores x all of its subsets x all of its window depths
(``max_invocations``), and every later point is a dictionary lookup.
That call evaluates each benchmark once: every depth's estimates are
prefixes of the deepest window's per-invocation runs
(:meth:`~repro.accel.base.BSAModel.evaluate_region_on_cores`), each
byte-identical to a sweep at that depth alone.

The reference core is always the first core of that call.  DP-CGRA's
config cache carries over from one core to the next
(docs/modeling.md, "Order dependence"), so only the first core pays
each region's config load.  With the reference first, every other
core sees the same warm cache as in a two-core ``(reference, core)``
sweep, which is what keeps the metrics of each point independent of
which other cores the space holds.

The sweep stores one cache entry per depth, under the key a sweep at
that depth alone uses: it hashes the benchmark, scale, depth and the
full (cores, subsets) argument, so a repeated or resumed exploration
of the same space is warm from its first point.  On the paper space
(:meth:`DesignSpace.paper`) at depth 8 that argument is exactly
``repro sweep``'s (the four DSE cores, all 16 subsets, no Amdahl
schedule), so the two share cache entries; any other space or depth
has keys of its own.

The two axes the sweep engine does not model directly are applied as
deterministic analytic post-transforms on the sweep summary:

- **sizing** — a BSA at sizing level L has its datapath widened by
  :data:`~repro.explore.space.SIZING_FACTORS` ``[L]``; its cycles
  shrink sublinearly (``factor ** 0.6`` — Amdahl within the region:
  wider datapaths saturate on dependences and memory) and its
  per-invocation energy grows as ``factor ** 0.45`` (more lanes, but
  leakage and control amortize).
- **DVFS** — wall time scales by the operating point's ``time_scale``
  and energy splits into a dynamic part (scaling with V^2) and a
  leakage part (:data:`LEAK_FRACTION` of nominal energy, scaling with
  V x time), per :mod:`repro.energy.dvfs` physics.

Both transforms are exact identities at nominal frequency and sizing
level 0, so on the paper space (:meth:`DesignSpace.paper`) these
metrics equal the plain Fig. 12 sweep metrics bit-for-bit.

Metrics follow the Fig. 12 convention: speedup and energy efficiency
relative to the IO2 reference, geometric mean across benchmarks
(:func:`math.fsum` in log space — order-independent), rounded to
:data:`METRIC_DIGITS` digits for the canonical artifact.
"""

import math

from repro.dse.report import REFERENCE_CORE
from repro.dse.sweep import ALL_SUBSETS, run_sweep
from repro.energy.dvfs import OperatingPoint
from repro.explore.space import (
    DEFAULT_CORES, DEFAULT_MAX_INVOCATIONS, SIZING_FACTORS,
)
from repro.obs import counter, span

#: Fraction of nominal modeled energy attributed to leakage when
#: re-costing a point at a non-nominal DVFS state (the summary's
#: per-unit energies are not split, so the split is modeled here).
LEAK_FRACTION = 0.15

#: Sublinear cycle shrink / superlinear energy growth of a widened BSA.
SIZING_TIME_EXP = 0.6
SIZING_ENERGY_EXP = 0.45

#: Canonical rounding for artifact metrics (matches the fidelity
#: sweep's point precision).
METRIC_DIGITS = 9


def _transform_summary(summary, point):
    """(cycles, energy_pj) of *summary* after sizing + DVFS."""
    cycles = float(summary["cycles"])
    energy = float(summary["energy_pj"])
    for bsa, level in zip(
            ("simd", "dp_cgra", "ns_df", "trace_p"), point.sizing):
        if level == 0 or bsa not in point.subset:
            continue
        factor = SIZING_FACTORS[level]
        unit_cycles = float(summary["cycles_by"].get(bsa, 0))
        unit_energy = float(summary["energy_by"].get(bsa, 0.0))
        cycles += unit_cycles / factor ** SIZING_TIME_EXP \
            - unit_cycles
        energy += unit_energy * factor ** SIZING_ENERGY_EXP \
            - unit_energy
    op = OperatingPoint(point.freq_ghz)
    wall = cycles * op.time_scale
    energy = (energy * (1.0 - LEAK_FRACTION)
              * op.dynamic_energy_scale
              + energy * LEAK_FRACTION
              * op.leakage_energy_per_cycle_scale)
    return wall, energy


def _geomean(values):
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in positives)
                    / len(positives))


class ExactEvaluator:
    """Batched exact evaluation of :class:`DesignPoint` s.

    One instance pins the benchmark list, the *cores*, *subsets* and
    window depths (*max_invocations*) a point may use, the workload
    scale and the sweep plumbing (cache).  Sweep
    records are memoized per window depth.  The first point sweeps
    every core (reference first) x every subset x every depth not yet
    memoized in one ``run_sweep`` call, which evaluates each
    benchmark once for all of those depths, so ``sweep_calls`` is 1
    on a cold evaluator.  *workers* parallelizes the underlying sweep
    without affecting any numeric result.
    """

    def __init__(self, benchmarks, scale=1.0, workers=1,
                 cache_dir=None, use_cache=None,
                 reference_core=REFERENCE_CORE,
                 progress=None, cores=DEFAULT_CORES,
                 subsets=ALL_SUBSETS,
                 max_invocations=DEFAULT_MAX_INVOCATIONS):
        self.benchmarks = tuple(sorted(benchmarks))
        if not self.benchmarks:
            raise ValueError("need at least one benchmark")
        self.cores = (reference_core,) + tuple(
            core for core in dict.fromkeys(cores)
            if core != reference_core)
        self.subsets = tuple(subsets)
        self.max_invocations = tuple(
            dict.fromkeys(int(depth) for depth in max_invocations))
        self.scale = float(scale)
        self.workers = int(workers)
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.reference_core = reference_core
        self.progress = progress
        self._records = {}      # max_invocations -> {name: record}
        self.exact_evals = 0    # points metered (not memoized depths)
        self.sweep_calls = 0

    def _records_for(self, max_invocations):
        cached = self._records.get(max_invocations)
        if cached is not None:
            return cached
        depths = tuple(depth for depth in self.max_invocations
                       if depth not in self._records)
        with span("explore.evaluate", max_invocations=list(depths),
                  cores=len(self.cores), subsets=len(self.subsets)):
            sweeps = run_sweep(
                names=list(self.benchmarks), core_names=self.cores,
                subsets=self.subsets, scale=self.scale,
                max_invocations=depths, with_amdahl=False,
                workers=self.workers, cache_dir=self.cache_dir,
                use_cache=self.use_cache)
        self.sweep_calls += 1
        missing = [name for name in self.benchmarks
                   if any(name not in sweep.results
                          for sweep in sweeps.values())]
        if missing:
            raise RuntimeError(
                f"sweep failed for benchmarks {missing!r} "
                f"(max_invocations={list(depths)})")
        for depth, sweep in sweeps.items():
            self._records[depth] = {name: sweep.results[name]
                                    for name in self.benchmarks}
        return self._records[max_invocations]

    def metrics(self, point):
        """``{"speedup", "energy_eff"}`` of one point vs the IO2 ref,
        geomeaned across the evaluator's benchmarks."""
        if point.core not in self.cores \
                or point.subset not in self.subsets \
                or point.max_invocations not in self.max_invocations:
            raise ValueError(
                f"{point!r} lies outside the evaluator's cores "
                f"{self.cores!r} / {len(self.subsets)} subsets / "
                f"depths {self.max_invocations!r}")
        records = self._records_for(point.max_invocations)
        speedups = []
        energy_effs = []
        for name in self.benchmarks:
            record = records[name]
            ref_cycles, ref_energy, _ = \
                record.baseline[self.reference_core]
            summary = record.summary(point.core, point.subset)
            wall, energy = _transform_summary(summary, point)
            speedups.append(ref_cycles / max(1.0, wall))
            energy_effs.append(ref_energy / max(1.0, energy))
        return {
            "speedup": round(_geomean(speedups), METRIC_DIGITS),
            "energy_eff": round(_geomean(energy_effs),
                                METRIC_DIGITS),
        }

    def evaluate(self, points):
        """Exact metrics for *points*, keyed by canonical point key.

        Points are resolved in sorted-key order so sweep-call order —
        and thus cache population order and obs traffic — is
        deterministic for any input order.
        """
        by_key = {point.key(): point for point in points}
        out = {}
        for key in sorted(by_key):
            point = by_key[key]
            out[key] = self.metrics(point)
            self.exact_evals += 1
            counter("repro_explore_exact_evals_total").inc()
            if self.progress is not None:
                self.progress(key)
        return out
