"""Unit tests for inter-iteration dependence analysis (SIMD legality)."""

import pytest

from repro.accel import AnalysisContext
from repro.analysis.memdep import analyze_loop_dependences
from repro.programs import KernelBuilder
from repro.tdg import construct_tdg


def analyze(kernel_builder):
    program, memory = kernel_builder.build()
    tdg = construct_tdg(program, memory)
    ctx = AnalysisContext(tdg)
    loop = [l for l in ctx.forest if l.is_inner][0]
    return ctx.dep_info(loop), ctx, loop


class TestVectorizability:
    def test_streaming_loop_vectorizable(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        info = ctx.dep_info(loop)
        assert info.vectorizable
        assert not info.carried_mem_dep
        assert not info.carried_data_dep

    def test_reduction_allowed(self, reduction_tdg):
        ctx = AnalysisContext(reduction_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        info = ctx.dep_info(loop)
        assert info.vectorizable
        assert info.reduction_uids

    def test_induction_detected(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        info = ctx.dep_info(loop)
        assert info.induction_uids

    def test_recurrence_rejected(self):
        # b[i] = b[i-1] * 0.5: loop-carried memory dependence.
        k = KernelBuilder("rec")
        b = k.array("b", [1.0] * 64)
        with k.function("main"):
            with k.loop(63) as i:
                prev = k.ld(b, i)
                k.st(b, k.add(i, 1), k.fmul(prev, 0.5))
            k.halt()
        info, _ctx, _loop = analyze(k)
        assert info.carried_mem_dep
        assert not info.vectorizable

    def test_scatter_accumulate_rejected(self):
        # hist[x[i]] += 1 with repeated indices.
        k = KernelBuilder("hist")
        idx = k.array("idx", [i % 4 for i in range(64)])
        hist = k.array("hist", 8)
        with k.function("main"):
            with k.loop(64) as i:
                b = k.ld(idx, i)
                addr = k.add(b, hist.base)
                count = k.ld(addr, 0)
                k.st(addr, 0, k.add(count, 1))
            k.halt()
        info, _ctx, _loop = analyze(k)
        assert info.carried_mem_dep

    def test_non_reduction_recurrence_rejected(self):
        # state = state * 3 + 1: carried data dep, not a reduction.
        k = KernelBuilder("lcg")
        out = k.array("out", 64)
        with k.function("main"):
            state = k.var(1)
            with k.loop(64) as i:
                k.set(state, k.add(k.mul(state, 3), 1))
                k.st(out, i, state)
            k.halt()
        info, _ctx, _loop = analyze(k)
        assert info.carried_data_dep


class TestStrides:
    def test_unit_strides(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        info = ctx.dep_info(loop)
        assert set(info.load_strides.values()) == {1}
        assert set(info.store_strides.values()) == {1}
        assert info.contiguous_fraction() == 1.0

    def test_strided_access(self):
        k = KernelBuilder("strided")
        a = k.array("a", [1.0] * 128)
        out = k.array("out", 64)
        with k.function("main"):
            with k.loop(64) as i:
                v = k.ld(a, k.mul(i, 2))
                k.st(out, i, v)
            k.halt()
        info, _ctx, loop = analyze(k)
        strides = [info.stride_of(inst.uid)
                   for inst in loop.instructions() if inst.is_load]
        assert 2 in strides

    def test_irregular_access_has_no_stride(self):
        k = KernelBuilder("gather")
        idx = k.array("idx", [(i * 17) % 64 for i in range(64)])
        data = k.array("data", [1.0] * 64)
        out = k.array("out", 64)
        with k.function("main"):
            with k.loop(64) as i:
                j = k.ld(idx, i)
                v = k.ld(k.add(j, data.base), 0)   # gather
                k.st(out, i, v)
            k.halt()
        info, _ctx, loop = analyze(k)
        assert None in info.load_strides.values()
        assert info.contiguous_fraction() < 1.0


class TestIterationSpans:
    """The iterations the path profiler records, which every analysis
    reads."""

    def test_spans_partition_interval(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        interval = ctx.intervals[loop.key][0]
        spans = ctx.path_profiles[loop.key].spans[interval]
        assert spans[0][0] == interval[0]
        assert spans[-1][1] == interval[1]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 == s2

    def test_span_count_equals_iterations(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        interval = ctx.intervals[loop.key][0]
        spans = ctx.path_profiles[loop.key].spans[interval]
        assert len(spans) == 128

    def test_max_iterations_cap(self, vector_tdg):
        ctx = AnalysisContext(vector_tdg)
        loop = [l for l in ctx.forest if l.is_inner][0]
        info = analyze_loop_dependences(
            vector_tdg.trace.instructions, loop,
            ctx.path_profiles[loop.key].spans.values(),
            max_iterations=16)
        assert info.iterations_seen == 16
