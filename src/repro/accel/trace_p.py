"""Trace-Speculative Processor model (BERET-like + dataflow, sec 3.2).

Analyzer: inner loops with loop-back probability above 80% and a
configuration that fits the hardware limit; the hot path comes from
path profiling, which also records each iteration's own path.
Compound instructions may cross control boundaries (so Trace-P fuses
larger CFUs than NS-DF, paper Table 2).

Transformer: iterations following the hot path run speculatively on
the accelerator — branches become cheap verify ops with *no* control
dependences; stores go to an iteration-versioned store buffer.
Iterations that diverge from the hot trace mispeculate: their work is
replayed on the general core behind a flush penalty, and the trace
engine restarts.
"""

from repro.isa.opcodes import Opcode
from repro.accel.base import (
    BSAModel, offload_dataflow, offload_table, remap,
)
from repro.analysis.cfu import schedule_cfus
from repro.tdg.engine import AccelResources
from repro.tdg.fastpath import SPAN_ON_TRACE, SPAN_REPLAY

#: Minimum loop-back probability (paper: "higher than 80%").
LOOP_BACK_THRESHOLD = 0.80

#: Static compound-instruction budget (half of NS-DF's operand storage,
#: but larger CFUs, per Table 2).
STATIC_CFU_BUDGET = 128

#: Max ops per compound instruction (crosses control boundaries).
MAX_CFU_SIZE = 6

#: Writeback capacity (values/cycle).
WRITEBACK_BUS = 2

#: In-flight window: half of NS-DF's operand storage (paper 3.1).
OPERAND_STORAGE = 128

#: Flush + restart penalty on a trace mispeculation (cycles).
MISPEC_PENALTY = 8

#: Minimum fraction of iterations on the hot path for profitability.
HOT_PATH_THRESHOLD = 0.50

#: Operand forwarding latency between dataflow CFUs (shared writeback
#: bus arbitration, as in the SEED/BERET-style fabrics).
DATAFLOW_EDGE_LATENCY = 1


class TraceProcessorModel(BSAModel):
    """Trace-speculative dataflow BSA."""

    name = "trace_p"
    power_gates_core = True

    def accel_resources(self, core_config):
        # Half of NS-DF's operand storage (paper section 3.1).
        return AccelResources({self.name: WRITEBACK_BUS},
                              windows={self.name: OPERAND_STORAGE})

    @property
    def dataflow_latency(self):
        return DATAFLOW_EDGE_LATENCY + (1 if self.detailed else 0)

    @property
    def mispec_penalty(self):
        """Detailed reference models the full flush + trace-cache
        refill; the fast model uses the nominal penalty."""
        return 14 if self.detailed else MISPEC_PENALTY

    def region_entry_overhead(self, plan):
        overhead = 4 + plan.get("live_ins", 2)
        return 2 * overhead if self.detailed else overhead

    def find_candidates(self, ctx):
        plans = {}
        for loop in ctx.forest:
            if not loop.is_inner:
                continue
            profile = ctx.path_profiles.get(loop.key)
            if profile is None or profile.iterations < 4:
                continue
            if profile.loop_back_probability < LOOP_BACK_THRESHOLD:
                continue
            if profile.hot_path_probability < HOT_PATH_THRESHOLD:
                continue
            has_call = any(
                inst.opcode in (Opcode.CALL, Opcode.RET)
                for inst in loop.instructions()
            )
            if has_call:
                continue
            hot_path = profile.hot_path
            hot_uids = {
                inst.uid
                for label in hot_path
                for inst in loop.function.block(label)
            }
            schedule = schedule_cfus(loop, max_cfu_size=MAX_CFU_SIZE,
                                     cross_control=True,
                                     eligible_uids=hot_uids)
            if schedule.compound_count > STATIC_CFU_BUDGET:
                continue
            plans[loop.key] = {
                "loop": loop,
                "profile": profile,
                "hot_path": tuple(hot_path),
                "hot_uids": hot_uids,
                "schedule": schedule,
                "live_ins": min(6, max(2, loop.static_size() // 16)),
            }
        return plans

    def estimate_speedup(self, ctx, plan, core_config):
        profile = plan["profile"]
        hot = profile.hot_path_probability
        width_discount = {1: 1.2, 2: 0.95, 4: 0.7, 6: 0.6, 8: 0.5}.get(
            core_config.width, 1.0)
        if core_config.in_order:
            width_discount *= 1.35
        # Divergent iterations replay on the core (~2x their cost).
        replay_discount = 1.0 / (hot + 2.0 * (1.0 - hot))
        return max(0.5, (0.55 + hot) * width_discount
                   * replay_discount)

    # ------------------------------------------------------------------
    def offload_spans(self, ctx, plan, interval):
        """One interval's iterations as a flat ``(start, end, mode)``
        sequence: an iteration whose recorded path is the hot path runs
        on the trace (``SPAN_ON_TRACE``), any other replays on the core
        (``SPAN_REPLAY``)."""
        loop = plan["loop"]
        hot_path = plan["hot_path"]
        paths = ctx.path_profiles[loop.key].paths[interval]
        spans = []
        for (span_start, span_end), path in zip(
                ctx.spans_of(loop, interval), paths):
            spans += (span_start, span_end,
                      SPAN_ON_TRACE if path == hot_path else SPAN_REPLAY)
        return spans

    def dataflow_offload(self, ctx, plan):
        if type(self).transform_interval \
                is not TraceProcessorModel.transform_interval:
            return None
        return offload_table(ctx, plan, self.name, self.dataflow_latency,
                             mispec_penalty=self.mispec_penalty)

    def transform_interval(self, ctx, plan, interval, vector_len,
                           seq_alloc, out):
        loop = plan["loop"]
        slots = plan["schedule"].slots
        trace = ctx.tdg.trace.instructions
        loop_uids = loop.uids
        spans = self.offload_spans(ctx, plan, interval)

        seq_map = {}
        last_accel_seq = None
        restart_edge = None   # (seq, latency) after a mispeculation

        for at in range(0, len(spans), 3):
            span_start, span_end, mode = spans[at:at + 3]
            if mode == SPAN_ON_TRACE:
                # Speculative: branches become cheap verify ops with no
                # control dependence; only the iteration's first loop
                # instruction waits, behind a replay's restart edge.
                # Compound ops do not fuse across iterations.
                chains = {}
                for index in range(span_start, span_end):
                    dyn = trace[index]
                    entry_edge = ()
                    if restart_edge is not None and dyn.uid in loop_uids:
                        entry_edge = (restart_edge,)
                        restart_edge = None
                    seq = offload_dataflow(
                        dyn, loop_uids, self.name, entry_edge, slots,
                        chains, seq_map, seq_alloc, out)
                    if seq is not None:
                        last_accel_seq = seq
            elif span_end > span_start:
                # Trace mispeculation: replay the iteration on the
                # general core behind the flush penalty.
                penalty = () if last_accel_seq is None \
                    else ((last_accel_seq, self.mispec_penalty),)
                for index in range(span_start, span_end):
                    remap(trace[index], seq_map, out, penalty)
                    penalty = ()
                restart_edge = (trace[span_end - 1].seq, 2)

