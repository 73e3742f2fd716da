"""Tests for the DP-CGRA, NS-DF and Trace-P BSA models."""

import pytest

from repro.accel import (
    AnalysisContext, DPCGRAModel, NSDataflowModel, TraceProcessorModel,
    BSA_REGISTRY,
)
from repro.accel.base import SeqAllocator
from repro.core_model import IO2, OOO2, OOO6
from repro.energy import EnergyModel
from repro.isa import Opcode
from repro.programs import KernelBuilder
from repro.tdg import TimingEngine, construct_tdg
from tests.transformed import transformed_rows


def heavy_kernel():
    """Separable compute-heavy loop (DP-CGRA's niche)."""
    k = KernelBuilder("heavy")
    a = k.array("a", [float(i % 11) * 0.5 for i in range(192)])
    c = k.array("c", 192)
    with k.function("main"):
        with k.loop(192) as i:
            v = k.ld(a, i)
            t1 = k.fmul(v, v)
            t2 = k.fadd(t1, v)
            t3 = k.fmul(t2, 0.5)
            t4 = k.fadd(t3, 1.25)
            t5 = k.fmul(t4, t2)
            t6 = k.fsub(t5, t1)
            k.st(c, i, t6)
        k.halt()
    return construct_tdg(*k.build())


@pytest.fixture(scope="module")
def heavy_ctx():
    return AnalysisContext(heavy_kernel())


class TestDPCGRA:
    def test_separable_loop_selected(self, heavy_ctx):
        plans = DPCGRAModel().find_candidates(heavy_ctx)
        assert len(plans) == 1

    def test_unseparable_rejected(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        assert DPCGRAModel().find_candidates(ctx) == {}

    def test_transform_offloads_compute(self, heavy_ctx):
        model = DPCGRAModel()
        plan = next(iter(model.find_candidates(heavy_ctx).values()))
        interval = heavy_ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, heavy_ctx, plan, interval,
                                  OOO2.vector_len, SeqAllocator())
        cgra_ops = [d for d in stream if d.accel == "dp_cgra"]
        core_ops = [d for d in stream if d.accel is None]
        assert cgra_ops and core_ops
        # memory stays on the core
        assert all(d.mem_addr is None for d in cgra_ops)

    def test_config_instruction_on_first_invocation_only(self,
                                                         heavy_ctx):
        model = DPCGRAModel()
        plan = next(iter(model.find_candidates(heavy_ctx).values()))
        interval = heavy_ctx.intervals[plan["loop"].key][0]
        alloc = SeqAllocator()
        first = transformed_rows(model, heavy_ctx, plan, interval,
                                 OOO2.vector_len, alloc)
        second = transformed_rows(model, heavy_ctx, plan, interval,
                                  OOO2.vector_len, alloc)
        assert sum(1 for d in first if d.opcode is Opcode.CFG) == 1
        assert sum(1 for d in second if d.opcode is Opcode.CFG) == 0

    def test_comm_instructions_inserted(self, heavy_ctx):
        model = DPCGRAModel()
        plan = next(iter(model.find_candidates(heavy_ctx).values()))
        interval = heavy_ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, heavy_ctx, plan, interval,
                                  OOO2.vector_len, SeqAllocator())
        opcodes = {d.opcode for d in stream}
        assert Opcode.SEND in opcodes or Opcode.RECV in opcodes

    def test_speedup_and_estimate(self, heavy_ctx):
        model = DPCGRAModel()
        plan = next(iter(model.find_candidates(heavy_ctx).values()))
        estimate = model.evaluate_region(heavy_ctx, plan, OOO2)
        key = plan["loop"].key
        base = 0
        for s, e in heavy_ctx.intervals[key]:
            base += TimingEngine(OOO2).run(
                heavy_ctx.tdg.trace.instructions[s:e]).cycles
        assert base / estimate.cycles > 1.2
        assert model.estimate_speedup(heavy_ctx, plan, OOO2) > 1.0

    def test_detailed_mode_slower(self, heavy_ctx):
        model = DPCGRAModel()
        plan = next(iter(model.find_candidates(heavy_ctx).values()))
        fast = DPCGRAModel(detailed=False).evaluate_region(
            heavy_ctx, plan, OOO2)
        slow = DPCGRAModel(detailed=True).evaluate_region(
            heavy_ctx, plan, OOO2)
        assert slow.cycles > fast.cycles


class TestNSDF:
    def test_nested_loops_selected(self, nested_tdg):
        ctx = AnalysisContext(nested_tdg)
        plans = NSDataflowModel().find_candidates(ctx)
        # Both levels of the nest are candidates (scheduler picks).
        assert len(plans) == 2

    def test_loops_with_calls_rejected(self):
        k = KernelBuilder("withcall")
        out = k.array("out", 1)
        with k.function("helper"):
            v = k.ld(out, 0)
            k.st(out, 0, k.add(v, 1))
            k.ret()
        with k.function("main"):
            with k.loop(20):
                k.call("helper")
            k.halt()
        ctx = AnalysisContext(construct_tdg(*k.build()))
        plans = NSDataflowModel().find_candidates(ctx)
        assert plans == {}

    def test_transform_is_all_accel(self, nested_tdg):
        ctx = AnalysisContext(nested_tdg)
        model = NSDataflowModel()
        plans = model.find_candidates(ctx)
        outer = ctx.forest.roots[0]
        plan = plans[outer.key]
        interval = ctx.intervals[outer.key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO2.vector_len,
                                  SeqAllocator())
        assert all(d.accel == "ns_df" for d in stream)

    def test_branches_become_switches(self, nested_tdg):
        ctx = AnalysisContext(nested_tdg)
        model = NSDataflowModel()
        outer = ctx.forest.roots[0]
        plan = model.find_candidates(ctx)[outer.key]
        interval = ctx.intervals[outer.key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO2.vector_len,
                                  SeqAllocator())
        opcodes = {d.opcode for d in stream}
        assert Opcode.SWITCH in opcodes
        assert Opcode.BR not in opcodes
        assert Opcode.JMP not in opcodes

    def test_cfus_are_fused(self, nested_tdg):
        ctx = AnalysisContext(nested_tdg)
        model = NSDataflowModel()
        outer = ctx.forest.roots[0]
        plan = model.find_candidates(ctx)[outer.key]
        interval = ctx.intervals[outer.key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO2.vector_len,
                                  SeqAllocator())
        cfus = [d for d in stream if d.opcode is Opcode.CFU]
        assert any(d.vector_width > 1 for d in cfus)

    def test_better_energy_than_time(self, nested_tdg):
        """NS-DF power-gates the core: energy gain > time gain
        (paper Fig. 13 observation)."""
        ctx = AnalysisContext(nested_tdg)
        model = NSDataflowModel()
        outer = ctx.forest.roots[0]
        plan = model.find_candidates(ctx)[outer.key]
        estimate = model.evaluate_region(ctx, plan, OOO2)
        energy_model = EnergyModel(OOO2)
        base_c = 0
        base_e = 0.0
        for s, e in ctx.intervals[outer.key]:
            stream = nested_tdg.trace.instructions[s:e]
            r = TimingEngine(OOO2).run(stream)
            base_c += r.cycles
            base_e += energy_model.evaluate(stream, r.cycles).total_pj
        time_gain = base_c / estimate.cycles
        energy_gain = base_e / estimate.energy_pj
        # Power gating keeps the energy gain at least on par with the
        # time gain even when the dataflow speedup itself is large.
        assert energy_gain > 1.5
        assert energy_gain > 0.9 * time_gain

    def test_entry_overhead_counted(self, nested_tdg):
        ctx = AnalysisContext(nested_tdg)
        model = NSDataflowModel()
        outer = ctx.forest.roots[0]
        plan = model.find_candidates(ctx)[outer.key]
        assert model.region_entry_overhead(plan) > 0


class TestTraceP:
    def test_biased_loop_selected(self, branchy_tdg):
        ctx = AnalysisContext(branchy_tdg)
        plans = TraceProcessorModel().find_candidates(ctx)
        assert len(plans) == 1

    def test_unbiased_loop_rejected(self):
        k = KernelBuilder("unbiased")
        a = k.array("a", [float(i % 2) for i in range(128)])
        out = k.array("out", 128)
        with k.function("main"):
            with k.loop(128) as i:
                v = k.ld(a, i)
                c = k.fslt(v, 0.5)    # alternates: hot path ~50%...
                k.if_(c, lambda: k.st(out, i, 1.0),
                      lambda: k.st(out, i, 2.0))
            k.halt()
        ctx = AnalysisContext(construct_tdg(*k.build()))
        plans = TraceProcessorModel().find_candidates(ctx)
        # Alternating paths: hot-path probability ~0.5, at/below the
        # profitability threshold.
        for plan in plans.values():
            assert plan["profile"].hot_path_probability >= 0.5

    def test_divergent_iterations_replay_on_core(self, branchy_tdg):
        ctx = AnalysisContext(branchy_tdg)
        model = TraceProcessorModel()
        plan = next(iter(model.find_candidates(ctx).values()))
        interval = ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO2.vector_len,
                                  SeqAllocator())
        accel = [d for d in stream if d.accel == "trace_p"]
        core = [d for d in stream if d.accel is None]
        assert accel and core     # hot iterations + replays

    def test_hot_only_loop_fully_offloaded(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        model = TraceProcessorModel()
        plans = model.find_candidates(ctx)
        assert plans
        plan = next(iter(plans.values()))
        interval = ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO2.vector_len,
                                  SeqAllocator())
        assert all(d.accel == "trace_p" for d in stream)

    def test_energy_reduction(self, branchy_tdg):
        ctx = AnalysisContext(branchy_tdg)
        model = TraceProcessorModel()
        plan = next(iter(model.find_candidates(ctx).values()))
        estimate = model.evaluate_region(ctx, plan, OOO2)
        energy_model = EnergyModel(OOO2)
        base_e = 0.0
        for s, e in ctx.intervals[plan["loop"].key]:
            stream = branchy_tdg.trace.instructions[s:e]
            r = TimingEngine(OOO2).run(stream)
            base_e += energy_model.evaluate(stream, r.cycles).total_pj
        assert base_e / estimate.energy_pj > 1.2

    def test_estimates_shrink_with_core_width(self, branchy_tdg):
        ctx = AnalysisContext(branchy_tdg)
        model = TraceProcessorModel()
        plan = next(iter(model.find_candidates(ctx).values()))
        narrow = model.estimate_speedup(ctx, plan, IO2)
        wide = model.estimate_speedup(ctx, plan, OOO6)
        assert narrow > wide


class TestRegistry:
    def test_all_four_registered(self):
        assert set(BSA_REGISTRY) == {"simd", "dp_cgra", "ns_df",
                                     "trace_p"}

    def test_models_have_unique_names(self):
        names = {cls().name for cls in BSA_REGISTRY.values()}
        assert len(names) == 4

    def test_offload_bsas_power_gate(self):
        assert NSDataflowModel.power_gates_core
        assert TraceProcessorModel.power_gates_core
        assert not DPCGRAModel.power_gates_core
