#!/usr/bin/env python3
"""Write your own BSA model (paper Appendix A, "Steps in TDG Model
Construction").

Defines a new behavior-specialized accelerator from scratch — a
modulo-scheduled *loop engine* that executes one inner-loop iteration
per fixed initiation interval (II) — and evaluates it against the
built-in BSAs, following the appendix's three steps:

1. **Analysis**: find counted inner loops with a single hot path and
   derive the II from the loop body's resource needs.
2. **Transformation**: rewrite each iteration's µDG into engine
   operations chained by II edges, with the rewrite rules the built-in
   dataflow BSAs share.
3. **Scheduling**: give the Amdahl tree a static speedup estimate.

Run:  python examples/custom_bsa.py
"""

from repro.accel import AnalysisContext, BSA_REGISTRY
from repro.accel.base import BSAModel, offload_dataflow
from repro.analysis.cfu import schedule_cfus
from repro.core_model import OOO2
from repro.tdg import TimingEngine
from repro.tdg.engine import AccelResources
from repro.workloads import WORKLOADS

#: Engine lanes: memory ops per cycle the loop engine can issue.
ENGINE_MEM_LANES = 2
#: Compute ops per cycle.
ENGINE_ALU_LANES = 4


class LoopEngineModel(BSAModel):
    """A modulo-scheduled loop accelerator (custom demo BSA)."""

    name = "loop_engine"
    power_gates_core = True

    def accel_resources(self, core_config):
        return AccelResources({self.name: ENGINE_ALU_LANES})

    def region_entry_overhead(self, plan):
        return 8   # configuration + live-in DMA

    # -- step 1: analysis ------------------------------------------------
    def find_candidates(self, ctx):
        plans = {}
        for loop in ctx.forest:
            if not loop.is_inner:
                continue
            profile = ctx.path_profiles[loop.key]
            if profile.iterations < 8 \
                    or profile.hot_path_probability < 0.99:
                continue   # single-path loops only
            body_mem = sum(1 for i in loop.instructions()
                           if i.is_memory)
            body_alu = sum(1 for i in loop.instructions()
                           if not i.is_memory)
            ii = max(1,
                     (body_mem + ENGINE_MEM_LANES - 1)
                     // ENGINE_MEM_LANES,
                     (body_alu + ENGINE_ALU_LANES - 1)
                     // ENGINE_ALU_LANES)
            # One compute op per engine FU: no compound fusion.
            schedule = schedule_cfus(loop, max_cfu_size=1)
            plans[loop.key] = {"loop": loop, "ii": ii,
                               "profile": profile, "schedule": schedule}
        return plans

    # -- step 2: transformation ------------------------------------------
    def transform_interval(self, ctx, plan, interval, vector_len,
                           seq_alloc, out):
        # The loop engine is scalar, so vector_len goes unused.
        loop = plan["loop"]
        trace = ctx.tdg.trace.instructions
        slots = plan["schedule"].slots
        seq_map = {}
        chains = {}
        prev_iter_head = None
        for span_start, span_end in ctx.spans_of(loop, interval):
            iter_head = None
            for index in range(span_start, span_end):
                edges = ()
                if iter_head is None and prev_iter_head is not None:
                    # Modulo schedule: iterations start II apart.
                    edges = ((prev_iter_head, plan["ii"]),)
                # Branches become switch ops, jumps are dropped, memory
                # and compute run on the engine, strays stay on core.
                seq = offload_dataflow(
                    trace[index], loop.uids, self.name, edges, slots,
                    chains, seq_map, seq_alloc, out)
                if seq is not None and iter_head is None:
                    iter_head = seq
            if iter_head is not None:
                prev_iter_head = iter_head

    # -- step 3: scheduling hook ------------------------------------------
    def estimate_speedup(self, ctx, plan, core_config):
        insts_per_iter = plan["profile"].insts_per_iteration
        return max(1.0, insts_per_iter
                   / (plan["ii"] * core_config.width))


def main():
    print("evaluating the custom loop engine against built-in BSAs\n")
    print(f"{'benchmark':<12} {'loop':<10}"
          + "".join(f"{b:>12}" for b in BSA_REGISTRY)
          + f"{'loop_engine':>12}")
    print("-" * 95)
    for name in ("conv", "stencil", "nnw", "482.sphinx3"):
        tdg = WORKLOADS[name].construct_tdg(scale=0.4)
        ctx = AnalysisContext(tdg)
        custom = LoopEngineModel()
        models = {b: cls() for b, cls in BSA_REGISTRY.items()}
        models["loop_engine"] = custom
        plans = {b: m.find_candidates(ctx) for b, m in models.items()}
        for loop in ctx.forest:
            if not loop.is_inner:
                continue
            base = 0
            for s, e in ctx.intervals[loop.key]:
                base += TimingEngine(OOO2).run(
                    tdg.trace.instructions[s:e]).cycles
            if not base:
                continue
            cells = []
            for bsa, model in models.items():
                plan = plans[bsa].get(loop.key)
                if plan is None:
                    cells.append(f"{'-':>12}")
                    continue
                estimate = model.evaluate_region(ctx, plan, OOO2,
                                                 max_invocations=6)
                cells.append(f"{base / estimate.cycles:>11.2f}x")
            print(f"{name:<12} {loop.header:<10}" + "".join(cells))


if __name__ == "__main__":
    main()
