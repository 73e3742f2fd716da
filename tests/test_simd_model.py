"""Tests for the SIMD BSA model (analyzer + transform)."""

import pytest

from repro.accel import AnalysisContext, SIMDModel
from repro.core_model import OOO2, OOO4
from repro.energy import EnergyModel
from repro.isa import Opcode
from repro.isa.opcodes import is_vector
from repro.programs import KernelBuilder
from repro.tdg import TimingEngine, construct_tdg
from tests.transformed import transformed_rows


@pytest.fixture(scope="module")
def vec_setup(request):
    k = KernelBuilder("vec")
    n = 256
    a = k.array("a", [float(i % 9) for i in range(n)])
    b = k.array("b", [1.5] * n)
    c = k.array("c", n)
    with k.function("main"):
        with k.loop(n) as i:
            av = k.ld(a, i)
            bv = k.ld(b, i)
            k.st(c, i, k.fadd(k.fmul(av, bv), 3.0))
        k.halt()
    program, memory = k.build()
    tdg = construct_tdg(program, memory)
    ctx = AnalysisContext(tdg)
    model = SIMDModel()
    plans = model.find_candidates(ctx)
    return tdg, ctx, model, plans


class TestCandidacy:
    def test_streaming_loop_selected(self, vec_setup):
        _tdg, _ctx, _model, plans = vec_setup
        assert len(plans) == 1

    def test_non_vectorizable_rejected(self, branchy_tdg):
        # branchy kernel's accumulator has mixed fadd/fsub carried dep.
        ctx = AnalysisContext(branchy_tdg)
        assert SIMDModel().find_candidates(ctx) == {}

    def test_low_trip_count_rejected(self):
        k = KernelBuilder("short")
        a = k.array("a", [1.0] * 8)
        out = k.array("out", 8)
        with k.function("main"):
            with k.loop(2) as i:     # far below a vector group
                k.st(out, i, k.fmul(k.ld(a, i), 2.0))
            k.halt()
        program, memory = k.build()
        ctx = AnalysisContext(construct_tdg(program, memory))
        assert SIMDModel().find_candidates(ctx) == {}

    def test_only_inner_loops(self, nested_tdg):
        ctx = AnalysisContext(nested_tdg)
        plans = SIMDModel().find_candidates(ctx)
        for key in plans:
            assert ctx.forest.loop(key).is_inner


class TestTransformStructure:
    def transform(self, vec_setup, config=OOO4):
        tdg, ctx, model, plans = vec_setup
        from repro.accel.base import SeqAllocator
        plan = next(iter(plans.values()))
        interval = ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, ctx, plan, interval,
                                  config.vector_len, SeqAllocator())
        return tdg, interval, stream

    def test_fewer_instructions(self, vec_setup):
        tdg, interval, stream = self.transform(vec_setup)
        original = interval[1] - interval[0]
        assert len(stream) < original / 2

    def test_vector_opcodes_present(self, vec_setup):
        _tdg, _interval, stream = self.transform(vec_setup)
        opcodes = {d.opcode for d in stream}
        assert Opcode.VLD in opcodes
        assert Opcode.VST in opcodes
        assert Opcode.VFMUL in opcodes

    def test_vector_width_matches_core(self, vec_setup):
        _tdg, _interval, stream = self.transform(vec_setup, OOO4)
        widths = {d.vector_width for d in stream if is_vector(d.opcode)}
        assert widths == {OOO4.vector_len}

    def test_one_latch_branch_per_group(self, vec_setup):
        _tdg, interval, stream = self.transform(vec_setup)
        branches = [d for d in stream if d.opcode is Opcode.BR]
        # 256 iterations / vl 4 = 64 groups.
        assert len(branches) == 256 // OOO4.vector_len

    def test_speedup_on_core(self, vec_setup):
        tdg, interval, stream = self.transform(vec_setup)
        base = TimingEngine(OOO4).run(
            tdg.trace.instructions[interval[0]:interval[1]])
        accel = TimingEngine(OOO4).run(stream)
        assert base.cycles / accel.cycles > 1.5

    def test_energy_reduction(self, vec_setup):
        tdg, interval, stream = self.transform(vec_setup)
        model = EnergyModel(OOO4)
        original = tdg.trace.instructions[interval[0]:interval[1]]
        base_c = TimingEngine(OOO4).run(original).cycles
        acc_c = TimingEngine(OOO4).run(stream).cycles
        base_e = model.evaluate(original, base_c).total_pj
        acc_e = model.evaluate(stream, acc_c,
                               active_accels=("simd",)).total_pj
        assert base_e / acc_e > 1.3


class TestScalarExpansion:
    def make_strided(self):
        k = KernelBuilder("strided")
        a = k.array("a", [1.0] * 512)
        out = k.array("out", 256)
        with k.function("main"):
            with k.loop(256) as i:
                v = k.ld(a, k.mul(i, 2))    # stride 2
                k.st(out, i, k.fmul(v, 2.0))
            k.halt()
        program, memory = k.build()
        return construct_tdg(program, memory)

    def test_non_contiguous_loads_stay_scalar(self):
        tdg = self.make_strided()
        ctx = AnalysisContext(tdg)
        model = SIMDModel()
        plans = model.find_candidates(ctx)
        assert plans
        from repro.accel.base import SeqAllocator
        plan = next(iter(plans.values()))
        interval = ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO4.vector_len,
                                  SeqAllocator())
        scalar_loads = [d for d in stream if d.opcode is Opcode.LD]
        vector_loads = [d for d in stream if d.opcode is Opcode.VLD]
        assert scalar_loads and not vector_loads
        # pack ops inserted
        assert any(d.opcode is Opcode.VBLEND for d in stream)


class TestReductions:
    def test_reduction_vectorized_with_tail(self, reduction_tdg):
        ctx = AnalysisContext(reduction_tdg)
        model = SIMDModel()
        plans = model.find_candidates(ctx)
        assert plans
        from repro.accel.base import SeqAllocator
        plan = next(iter(plans.values()))
        interval = ctx.intervals[plan["loop"].key][0]
        stream = transformed_rows(model, ctx, plan, interval, OOO2.vector_len,
                                  SeqAllocator())
        assert any(d.opcode is Opcode.VFADD for d in stream)

    def test_reduction_speedup_breaks_serial_chain(self, reduction_tdg):
        ctx = AnalysisContext(reduction_tdg)
        model = SIMDModel()
        plan = next(iter(model.find_candidates(ctx).values()))
        estimate = model.evaluate_region(ctx, plan, OOO4)
        base = TimingEngine(OOO4).run(reduction_tdg.trace.instructions)
        assert base.cycles / estimate.cycles > 1.3


class TestEstimateAndModes:
    def test_static_speedup_estimate_positive(self, vec_setup):
        _tdg, ctx, model, plans = vec_setup
        plan = next(iter(plans.values()))
        estimate = model.estimate_speedup(ctx, plan, OOO4)
        assert estimate > 1.0

    def test_detailed_mode_slower(self, vec_setup):
        _tdg, ctx, _model, plans = vec_setup
        plan = next(iter(plans.values()))
        fast = SIMDModel(detailed=False).evaluate_region(ctx, plan, OOO4)
        slow = SIMDModel(detailed=True).evaluate_region(ctx, plan, OOO4)
        assert slow.cycles >= fast.cycles
