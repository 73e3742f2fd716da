"""Non-Speculative Dataflow model (SEED/Wavescalar-like, section 3.2).

Analyzer: fully-inlinable loop nests (no calls) whose CFU schedule fits
the hardware budget of 256 static compound instructions.

Transformer: operates at basic-block granularity —

- compute chains fuse into compound-FU instructions;
- branches become ``switch`` (control-steering) instructions, and every
  instruction carries a control dependence on the latest switch (the
  non-speculative cost: work waits for control);
- loads/stores issue from the accelerator's own cache interface;
- a writeback-bus capacity of 2 values/cycle is enforced;
- entry/exit edges model live-value transfer.

The core pipeline is power-gated while NS-DF runs (energy side), which
is why NS-DF's energy gain exceeds its time gain in paper Fig. 13.
"""

from repro.isa.opcodes import Opcode
from repro.accel.base import BSAModel, offload_dataflow, offload_table
from repro.analysis.cfu import schedule_cfus
from repro.tdg.engine import AccelResources
from repro.tdg.fastpath import SPAN_NS_DF

#: Hardware budget: static compound instructions (paper: "targets
#: inlined nested loops with 256 static compound instructions").
STATIC_CFU_BUDGET = 256

#: Writeback-bus width (values per cycle).
WRITEBACK_BUS = 2

#: In-flight instruction window (operand storage entries).
OPERAND_STORAGE = 256

#: Switch (control-steering) latency.
SWITCH_LATENCY = 1

#: Max ops fused per compound FU.
MAX_CFU_SIZE = 4

#: Operand forwarding latency between dataflow units (writeback bus
#: arbitration + tag match; SEED-style distributed fabric).
DATAFLOW_EDGE_LATENCY = 2

_BR = Opcode.BR


class NSDataflowModel(BSAModel):
    """Non-speculative dataflow offload BSA."""

    name = "ns_df"
    power_gates_core = True

    def accel_resources(self, core_config):
        # Operand storage bounds the in-flight dataflow window.
        return AccelResources({self.name: WRITEBACK_BUS},
                              windows={self.name: OPERAND_STORAGE})

    @property
    def dataflow_latency(self):
        return DATAFLOW_EDGE_LATENCY + (1 if self.detailed else 0)

    @property
    def switch_latency(self):
        """Detailed reference charges full control-steering latency."""
        return 2 if self.detailed else SWITCH_LATENCY

    def region_entry_overhead(self, plan):
        overhead = 4 + plan.get("live_ins", 4)
        return 2 * overhead if self.detailed else overhead

    def find_candidates(self, ctx):
        plans = {}
        for loop in ctx.forest:
            profile = ctx.path_profiles.get(loop.key)
            if profile is None or profile.iterations < 2:
                continue
            has_call = any(
                inst.opcode in (Opcode.CALL, Opcode.RET)
                for inst in loop.instructions()
            )
            if has_call:
                continue
            schedule = schedule_cfus(loop, max_cfu_size=MAX_CFU_SIZE,
                                     cross_control=False)
            static_total = loop.static_size()
            if schedule.compound_count > STATIC_CFU_BUDGET \
                    or static_total > 2 * STATIC_CFU_BUDGET:
                continue
            plans[loop.key] = {
                "loop": loop,
                "schedule": schedule,
                "profile": profile,
                "live_ins": min(8, max(2, static_total // 16)),
            }
        return plans

    def estimate_speedup(self, ctx, plan, core_config):
        from repro.analysis.behavior import dataflow_ilp
        from repro.isa.opcodes import Opcode
        loop = plan["loop"]
        ilp = dataflow_ilp(loop)
        # Dataflow wins by cheap issue width and window: big on narrow
        # cores, washed out on wide OOO.
        issue_gain = {1: 1.6, 2: 1.2, 4: 0.9, 6: 0.8, 8: 0.7}.get(
            core_config.width, 1.0)
        if core_config.in_order:
            issue_gain *= 1.3
        # Non-speculative: work waits for control steering, so dense
        # control discounts the estimate (paper Table 2 drawback).
        # Uses the dynamic branch density from the profile.
        branch_fraction = plan["profile"].branch_fraction
        control_discount = 1.0 / (1.0 + 8.0 * branch_fraction)
        return max(0.5, min(2.2, 0.7 + 0.3 * ilp) * issue_gain
                   * control_discount)

    # ------------------------------------------------------------------
    def dataflow_offload(self, ctx, plan):
        if type(self).transform_interval \
                is not NSDataflowModel.transform_interval:
            return None
        return offload_table(ctx, plan, self.name, self.dataflow_latency,
                             switch_latency=self.switch_latency)

    def offload_spans(self, ctx, plan, interval):
        return (*interval, SPAN_NS_DF)

    def transform_interval(self, ctx, plan, interval, vector_len,
                           seq_alloc, out):
        loop = plan["loop"]
        slots = plan["schedule"].slots
        trace = ctx.tdg.trace.instructions
        start, end = interval
        seq_map = {}
        chains = {}
        # Non-speculative: every accelerator instruction waits for the
        # latest switch.  (Stray instructions, which a call-free nest
        # should not have, stay on the core.)
        control_edge = ()
        switch_latency = self.switch_latency
        for index in range(start, end):
            dyn = trace[index]
            seq = offload_dataflow(
                dyn, loop.uids, self.name, control_edge, slots, chains,
                seq_map, seq_alloc, out)
            if seq is not None and dyn.opcode is _BR:
                control_edge = ((seq, switch_latency),)
