"""Per-benchmark evaluation: baselines + accelerated region estimates.

This is the expensive step the TDG makes tractable: the trace is
simulated once, then every (core, BSA, region) combination is costed by
transforming and re-timing only the affected trace slices.  Each
region is transformed once per BSA, then lowered and reduced to energy
events in one walk; only the timing-engine run and the pricing of
those events repeat for every core.  One evaluation also serves every
window depth asked for: each depth reads its estimates off the
deepest window's per-invocation runs.
"""

from repro.accel import BSA_REGISTRY, AnalysisContext
from repro.accel.base import count_work, window_depths
from repro.analysis.regions import attribute_baseline
from repro.core_model import core_by_name
from repro.obs import counter, span
from repro.tdg.fastpath import (
    FastTimingEngine, LoweredStream, stream_events,
)


class CoreBaseline:
    """Full-trace baseline numbers for one core config."""

    def __init__(self, core_name, cycles, energy_pj, per_loop_cycles,
                 per_loop_energy):
        self.core_name = core_name
        self.cycles = cycles
        self.energy_pj = energy_pj
        self.per_loop_cycles = per_loop_cycles   # loop key -> cycles
        self.per_loop_energy = per_loop_energy   # loop key -> pJ

    def __repr__(self):
        return (f"<CoreBaseline {self.core_name}: {self.cycles} cyc, "
                f"{self.energy_pj/1000:.0f} nJ>")


class BenchmarkEvaluation:
    """All the numbers the schedulers need for one benchmark."""

    def __init__(self, name, ctx):
        self.name = name
        self.ctx = ctx
        self.baselines = {}     # core name -> CoreBaseline
        self.estimates = {}     # (bsa, core name) -> {loop key: RegionEstimate}
        self.plans = {}         # bsa -> {loop key: plan}

    @property
    def forest(self):
        return self.ctx.forest

    def baseline(self, core_name):
        return self.baselines[core_name]

    def estimate_for(self, bsa, core_name, loop_key):
        return self.estimates.get((bsa, core_name), {}).get(loop_key)

    def bsas_targeting(self, loop_key):
        return sorted(
            bsa for bsa, plans in self.plans.items() if loop_key in plans
        )

    def __repr__(self):
        return (f"<BenchmarkEvaluation {self.name}: "
                f"{len(self.baselines)} cores, "
                f"{len(self.estimates)} (bsa,core) sets>")


def evaluate_benchmark(tdg, core_names=("IO2", "OOO2", "OOO4", "OOO6"),
                       bsa_names=("simd", "dp_cgra", "ns_df", "trace_p"),
                       max_invocations=8, detailed=False, name=None):
    """Evaluate one TDG across cores and BSAs.

    *max_invocations* caps how many dynamic invocations of each region
    are transformed per BSA and timed per core; the rest extrapolate
    (the paper's windowed approach bounds work the same way).  A tuple
    of window depths returns ``{depth: BenchmarkEvaluation}``: the
    analyses, plans and baselines are built once, and every region is
    transformed and timed once for the deepest window, each depth
    reading its estimates off the same runs
    (:meth:`~repro.accel.base.BSAModel.evaluate_region_on_cores`).

    *detailed* puts every BSA in its detailed mode: the same transform
    and engine under a second set of constants, which the fidelity
    sweep uses as a constant-sensitivity study (docs/fidelity.md).
    """
    depths, single = window_depths(max_invocations)
    with span("exocore.evaluate", benchmark=name or tdg.program.name):
        ctx = AnalysisContext(tdg)
        evaluations = {
            depth: BenchmarkEvaluation(name or tdg.program.name, ctx)
            for depth in depths}
        evaluation = evaluations[depths[0]]
        for other in evaluations.values():
            other.baselines = evaluation.baselines
            other.plans = evaluation.plans
        trace = tdg.trace.instructions
        configs = [core_by_name(core_name) for core_name in core_names]

        # ---- baselines --------------------------------------------------
        # The trace is put in the engine's form and reduced to energy
        # events once (AnalysisContext.baseline: packed from the
        # interpreter's columns with the kernel, else the builder every
        # BSA stream takes; the dataflow offload reads the same lowered
        # trace).  Each loop's spans are reduced to events alone, in C
        # over the lowered trace when there is one
        # (TraceFacts.span_events); both are then timed and priced on
        # every core.
        with span("tdg.lower", path="baseline"):
            baseline_stream, trace_events = ctx.baseline()
        count_work("repro_insts_lowered_total",
                   len(trace) if baseline_stream.__class__ is LoweredStream
                   else 0, "baseline")
        with span("energy.price", path="baseline"):
            facts = ctx.trace_facts
            loop_events = {
                key: stream_events(_concat(trace, spans)) if facts is None
                else facts.span_events(spans)
                for key, spans in ctx.intervals.items() if spans
            }
        count_work("repro_insts_priced_total", len(trace) + sum(
            end - start for spans in ctx.intervals.values()
            for start, end in spans), "baseline")
        for core_name, config in zip(core_names, configs):
            with span("exocore.baseline", core=core_name):
                result = FastTimingEngine(
                    config, collect_commit_times=True).run(baseline_stream)
                commit_times = result.commit_times
                per_loop_cycles = attribute_baseline(commit_times,
                                                     ctx.intervals)
                energy_model = ctx.energy_model(config)
                total_energy = energy_model.price(trace_events,
                                                  result.cycles)
                per_loop_energy = {}
                for key in ctx.intervals:
                    events = loop_events.get(key)
                    per_loop_energy[key] = 0.0 if events is None \
                        else energy_model.price(
                            events, per_loop_cycles.get(key, 0)).total_pj
                evaluation.baselines[core_name] = CoreBaseline(
                    core_name, result.cycles, total_energy.total_pj,
                    per_loop_cycles, per_loop_energy)

        # ---- accelerated estimates --------------------------------------
        # BSA -> region -> core: each region is transformed once and
        # costed on every core at every depth
        # (BSAModel.evaluate_region_on_cores).
        for bsa in bsa_names:
            model = BSA_REGISTRY[bsa](detailed=detailed)
            with span("accel.find_candidates", bsa=bsa) as current:
                plans = model.find_candidates(ctx)
                current.set(candidates=len(plans))
            evaluation.plans[bsa] = plans
            per_core = {(depth, core_name): {} for depth in depths
                        for core_name in core_names}
            with span("accel.estimate_regions", bsa=bsa):
                for key, plan in plans.items():
                    by_depth = model.evaluate_region_on_cores(
                        ctx, plan, configs, max_invocations=depths)
                    if by_depth is None:
                        continue
                    for depth, estimates in by_depth.items():
                        for core_name, estimate in zip(core_names,
                                                       estimates):
                            per_core[(depth, core_name)][key] = estimate
            for (depth, core_name), estimates in per_core.items():
                counter("repro_region_estimates_total",
                        "per-region accelerated estimates produced") \
                    .inc(len(estimates), bsa=bsa)
                evaluations[depth].estimates[(bsa, core_name)] = \
                    estimates
        return evaluation if single else evaluations


def _concat(trace, spans):
    stream = []
    for start, end in spans:
        stream.extend(trace[start:end])
    return stream
