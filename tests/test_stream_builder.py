"""Transforms emit rows, not DynInst clones: the builder equals the walk.

BSA transforms emit into a :class:`~repro.tdg.fastpath.StreamBuilder`:
plain field lists, patched in place by compound-op folds and DP-CGRA's
in-order-completion edge.  ``finish()`` walks them once, charging
NS-DF's and Trace-P's dataflow latency on the way, for the kernel's
columns (or, without the kernel, the rows as DynInst objects) and the
energy events.  Each case here also records the rows as DynInst
objects (``rows``) and checks that the builder's columns, accelerator
tags and energy events equal a walk over those (``lower_stream``),
exactly and in component order, for every case of
``tests/test_transform_digests.py`` (whose digests pin the rows
themselves).  Without the kernel ``finish()`` hands back the rows, and
the column checks lower those.  The unit cases pin the patch rules one
hazard at a time; two gates pin the work: no DynInst on the kernel
path, and at most two walks per stream, none inside an engine run.
"""

import pytest

from repro.accel import BSA_REGISTRY, AnalysisContext
from repro.accel.base import SeqAllocator
from repro.accel.dp_cgra import DPCGRAModel
from repro.accel.ns_df import NSDataflowModel
from repro.core_model import core_by_name
from repro.core_model.config import DSE_CORES
from repro.energy import mcpat
from repro.exocore import evaluate_benchmark
from repro.isa import Instruction, Opcode
from repro.sim.trace import DynInst
from repro.tdg import fastpath
from repro.tdg.engine import TimingEngine
from repro.tdg.fastpath import (
    SYNTHESIZED_SEQ_BASE, FastTimingEngine, LoweredStream, StreamBuilder,
    kernel_available, lower_stream, stream_events,
)
from repro.workloads import WORKLOADS
from tests.test_stream_walk import UNLOWERABLE, reference_columns
from tests.test_transform_digests import (
    MAX_INVOCATIONS, SCALE, VECTOR_LENS, WIDTH_SUBSET,
)
from tests.transformed import transform

SYNTH = SYNTHESIZED_SEQ_BASE


def assert_lowered_like_walk(lowered, events, rows):
    """*lowered*/*events*, from the builder's rows, equal a walk over
    the same stream recorded as DynInst *rows*."""
    walked = lower_stream(rows)
    assert lowered.n == walked.n == len(rows)
    assert lowered.accel_tags == walked.accel_tags
    for field in LoweredStream.FIELDS:
        assert getattr(lowered, field) == getattr(walked, field), field
    walked_events = stream_events(rows)
    assert list(events.components.items()) \
        == list(walked_events.components.items())
    assert events.counts == walked_events.counts
    assert events.regfile == walked_events.regfile


def finished(out):
    """``(lowered, events)`` of builder *out*: its own columns with the
    kernel; without it ``finish()`` hands back the rows, lowered here
    for the column checks."""
    timed, events = out.finish()
    if kernel_available():
        assert timed.__class__ is LoweredStream
        return timed, events
    assert timed.__class__ is list
    return lower_stream(timed), events


# ---------------------------------------------------------------------------
# Every transform case.

def _check_workload(name, vector_lens):
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    for model_class in BSA_REGISTRY.values():
        for detailed in (False, True):
            model = model_class(detailed=detailed)
            for vector_len in vector_lens:
                plans = model.find_candidates(ctx)
                for key in sorted(plans):
                    seq_alloc = SeqAllocator()
                    for interval in \
                            ctx.intervals.get(key, ())[:MAX_INVOCATIONS]:
                        out = transform(model, ctx, plans[key], interval,
                                        vector_len, seq_alloc)
                        lowered, events = finished(out)
                        assert_lowered_like_walk(lowered, events, out.rows)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_builder_columns_and_events_equal_the_walk(name):
    vector_lens = (4,) + (VECTOR_LENS if name in WIDTH_SUBSET else ())
    _check_workload(name, vector_lens)


def test_every_bsa_and_patch_is_exercised():
    """djpeg1's candidates cover all four transforms, with folds, the
    dataflow split and DP-CGRA's in-order edge among their rows."""
    ctx = AnalysisContext(WORKLOADS["djpeg1"].construct_tdg(scale=SCALE))
    seen = set()
    for bsa, model_class in BSA_REGISTRY.items():
        model = model_class()
        for plan in model.find_candidates(ctx).values():
            seq_alloc = SeqAllocator()
            for interval in ctx.intervals[plan["loop"].key][:2]:
                rows = transform(model, ctx, plan, interval, 4,
                                 seq_alloc).rows
                seen.add(bsa)
                for row in rows:
                    if row.opcode is Opcode.CFU and row.vector_width > 1:
                        seen.add("fold")
                    if row.accel and any(lat == model.dataflow_latency
                                         and dep >= SYNTH for dep, lat
                                         in row.extra_deps):
                        seen.add("split")
                    if row.accel == "dp_cgra" and (
                            row.extra_deps and row.extra_deps[-1][1] == 0):
                        seen.add("in_order")
    assert seen >= set(BSA_REGISTRY) | {"fold", "split", "in_order"}, seen


# ---------------------------------------------------------------------------
# Hazards, one at a time.

_DEST = Instruction(Opcode.ADD, dest=3, srcs=(4,))
_DEST.uid = 0


def _trace_inst(seq, opcode=Opcode.ADD, deps=(), **fields):
    return DynInst(seq, _DEST, opcode, src_deps=deps, **fields)


def _finish(out):
    lowered, events = finished(out)
    assert_lowered_like_walk(lowered, events, out.rows)
    return lowered, events


def test_late_deps_of_a_folded_member_are_live_ins():
    """A member's dep on a row emitted after its compound head resolves
    as of the head: a trace producer is dropped, a synthesized one
    becomes an edge at position -1 that still charges its latency."""
    out = StreamBuilder(dataflow_latency=2)
    out.keep(_trace_inst(1))
    head = out.emit(_trace_inst(2, deps=(1,)), seq=SYNTH,
                    opcode=Opcode.CFU, accel="ns_df", lat_override=1)
    out.keep(_trace_inst(3))                       # trace row after head
    out.emit(_trace_inst(4, Opcode.LD, mem_addr=8), seq=SYNTH + 1,
             accel="ns_df")                        # synthesized, after
    out.fold(head, _trace_inst(5), (3, SYNTH + 1, 3))
    lowered, _ = _finish(out)
    assert out.rows[head].src_deps == (1, 3, 3)
    assert out.rows[head].extra_deps == ((SYNTH + 1, 2),)
    # Row 0 (seq 1) precedes the head; row 2 (seq 3) does not, so both
    # of its (undeduplicated) uses are dropped.
    assert list(lowered.dep_idx[lowered.dep_ptr[1]:lowered.dep_ptr[2]]) \
        == [0]
    assert list(lowered.extra_idx) == [-1]
    assert list(lowered.extra_lat) == [2]


def test_fold_dedups_against_the_head_not_within_the_member():
    out = StreamBuilder()
    head = out.emit(_trace_inst(1, deps=(40,)), seq=SYNTH,
                    opcode=Opcode.CFU, accel="ns_df", lat_override=1)
    out.fold(head, _trace_inst(2), (7, 7, SYNTH, 40, 9))
    out.fold(head, _trace_inst(3), (9, 8))
    _finish(out)
    assert out.rows[head].src_deps == (40, 7, 7, 9, 8)
    assert out.rows[head].vector_width == 3
    assert out.rows[head].lat_override == 3


def test_compound_energy_charges_the_final_width_in_row_order():
    """A compound op's pJ depends on its width after every fold; it is
    charged at the compound's row, one row at a time (never a builtin
    ``sum()``, which compensates rounding on Python 3.12+), and its
    component takes the place of the first compound in ``price``'s
    order."""
    out = StreamBuilder()
    heads = []
    for index in range(40):
        heads.append(out.emit(_trace_inst(index), seq=SYNTH + 2 * index,
                              opcode=Opcode.CFU, accel="ns_df",
                              lat_override=1))
        out.emit(_trace_inst(index, Opcode.BR), seq=SYNTH + 2 * index + 1,
                 opcode=Opcode.SWITCH, accel="ns_df")
    for index, head in enumerate(heads):
        for _ in range(index % 5):
            out.fold(head, _trace_inst(1000 + index), ())
    _, events = _finish(out)
    assert list(events.components) == ["ns_df_cfu", "ns_df_net",
                                       "ns_df_op"]
    op_pj = mcpat._ACCEL_OP_PJ["ns_df"]
    total = 0.0
    for index in range(40):
        total += op_pj + mcpat._CFU_EXTRA_OP_PJ * (index % 5)
    assert events.components["ns_df_cfu"] == total


def test_model_edges_come_before_dataflow_edges_in_source_order():
    """A row's own edges, including any added by a patch, come first;
    then one forwarding edge per synthesized dep, in dep order (the
    compound's deps, then each folded member's)."""
    out = StreamBuilder(dataflow_latency=3)
    out.emit(_trace_inst(1), seq=SYNTH, accel="ns_df")
    out.emit(_trace_inst(2), seq=SYNTH + 1, accel="ns_df")
    head = out.emit(
        _trace_inst(3), seq=SYNTH + 2, opcode=Opcode.CFU, accel="ns_df",
        src_deps=(SYNTH + 1, 17, SYNTH), extra_deps=((SYNTH, 1),),
        lat_override=1)
    out.fold(head, _trace_inst(4), (SYNTH + 1, SYNTH, 18, SYNTH + 3))
    out.add_edge(head, SYNTH + 1, 0)
    lowered, _ = _finish(out)
    assert out.rows[head].src_deps == (17, 18)
    assert out.rows[head].extra_deps == (
        (SYNTH, 1), (SYNTH + 1, 0), (SYNTH + 1, 3), (SYNTH, 3),
        (SYNTH + 3, 3))
    assert list(lowered.extra_idx) == [0, 1, 1, 0, -1]
    assert list(lowered.extra_lat) == [1, 0, 3, 3, 3]


def test_columns_equal_the_per_instruction_definitions():
    """Builder columns against the definitions, not only the walk, on a
    region with every patch (NS-DF fold + split, DP-CGRA edges)."""
    ctx = AnalysisContext(WORKLOADS["djpeg1"].construct_tdg(scale=SCALE))
    for model in (NSDataflowModel(), DPCGRAModel(detailed=True)):
        for plan in model.find_candidates(ctx).values():
            seq_alloc = SeqAllocator()
            for interval in ctx.intervals[plan["loop"].key][:3]:
                out = transform(model, ctx, plan, interval, 4, seq_alloc)
                lowered, _ = finished(out)
                expected, tags = reference_columns(out.rows)
                assert lowered.accel_tags == tags
                for field in LoweredStream.FIELDS:
                    assert list(getattr(lowered, field)) \
                        == expected[field], field


# ---------------------------------------------------------------------------
# Bounded walks, no DynInst on the kernel path.

def count_walks(monkeypatch):
    """Record the row count of every :func:`fastpath._walk` call."""
    walks = []
    walk = fastpath._walk

    def counting_walk(rows, *args):
        walks.append(len(rows))
        return walk(rows, *args)

    monkeypatch.setattr(fastpath, "_walk", counting_walk)
    return walks


@pytest.mark.parametrize("label", sorted(UNLOWERABLE))
def test_an_unlowerable_stream_finishes_as_its_rows(label, monkeypatch):
    """A stream whose columns cannot be packed comes back as the
    caller's own instructions, with its events: one walk without the
    kernel; with it, the lowering walk and one that records the
    rows."""
    stream = UNLOWERABLE[label]
    walks = count_walks(monkeypatch)
    out = StreamBuilder()
    out.extend(stream)
    timed, events = out.finish()
    assert len(timed) == len(stream)
    assert all(row is inst for row, inst in zip(timed, stream))
    assert walks == [len(stream)] * (2 if kernel_available() else 1)
    assert list(events.components.items()) \
        == list(stream_events(stream).components.items())


def test_no_dyninst_is_built_on_the_kernel_path(monkeypatch):
    """Machine-independent gate: a cold evaluation with the kernel
    constructs and clones no DynInst after the trace is built (2,160
    clones for conv at scale 0.1 before transforms emitted into a
    builder)."""
    if not kernel_available():
        pytest.skip("the kernel path needs the compiled kernel")
    tdg = WORKLOADS["conv"].construct_tdg(scale=0.1)
    made = 0
    init, clone = DynInst.__init__, DynInst.clone

    def counting_init(self, *args, **kwargs):
        nonlocal made
        made += 1
        init(self, *args, **kwargs)

    def counting_clone(self, *args, **kwargs):
        nonlocal made
        made += 1
        return clone(self, *args, **kwargs)

    monkeypatch.setattr(DynInst, "__init__", counting_init)
    monkeypatch.setattr(DynInst, "clone", counting_clone)
    evaluate_benchmark(tdg, name="conv")
    assert made == 0


# ---------------------------------------------------------------------------
# Streams that cannot be lowered take the object engine.

class _FloatRouteCGRA(DPCGRAModel):
    """DP-CGRA with a non-integer routing delay: its streams cannot be
    lowered, and its config cache is cross-invocation state."""

    @property
    def route_delay(self):
        return 1.5


def test_an_unlowerable_stream_is_timed_by_the_object_engine():
    """Int64 columns cannot hold a non-integer latency: such a stream's
    DynInst rows are timed by the object engine, with the same
    cross-invocation state as when every stream lowers."""
    ctx = AnalysisContext(WORKLOADS["djpeg1"].construct_tdg(scale=SCALE))
    config = core_by_name("OOO4")
    model = _FloatRouteCGRA()
    plans = model.find_candidates(ctx)
    oracle_plans = model.find_candidates(ctx)
    assert plans
    for key, plan in plans.items():
        estimate = model.evaluate_region_on_cores(
            ctx, plan, (config,), max_invocations=MAX_INVOCATIONS)[0]
        oracle = oracle_plans[key]
        seq_alloc = SeqAllocator()
        cycles = 0
        energy = 0.0
        for interval in ctx.intervals[key][:MAX_INVOCATIONS]:
            rows = transform(model, ctx, oracle, interval, 4,
                             seq_alloc).rows
            run = TimingEngine(
                config, accel_resources=model.accel_resources(config),
            ).run(rows).cycles + model.region_entry_overhead(oracle)
            cycles += run
            energy += ctx.energy_model(config).price(
                stream_events(rows), run,
                active_accels=(model.name,)).total_pj
        invocations = len(ctx.intervals[key])
        if invocations > MAX_INVOCATIONS:
            scale = invocations / MAX_INVOCATIONS
            cycles = int(cycles * scale)
            energy *= scale
        assert (estimate.cycles, estimate.energy_pj) == (cycles, energy)
        assert plan["config_cache"] == oracle["config_cache"]


def test_unlowerable_streams_are_walked_at_most_twice(monkeypatch):
    """Costing the float-route DP-CGRA on djpeg1 on the four DSE cores
    walks each transformed stream at most twice (the lowering walk,
    then its rows) and never inside an engine run (40 walks, 20 of
    them inside engine runs, when each core's run lowered the stream
    again)."""
    ctx = AnalysisContext(WORKLOADS["djpeg1"].construct_tdg(scale=SCALE))
    configs = [core_by_name(name) for name in DSE_CORES]
    model = _FloatRouteCGRA()
    walks = count_walks(monkeypatch)
    streams = []
    engine_walks = []
    finish, run = StreamBuilder.finish, FastTimingEngine._run

    def counting_finish(self):
        streams.append(len(self))
        return finish(self)

    def watched_run(self, stream, start_time=0):
        before = len(walks)
        result = run(self, stream, start_time)
        engine_walks.append(len(walks) - before)
        return result

    monkeypatch.setattr(StreamBuilder, "finish", counting_finish)
    monkeypatch.setattr(FastTimingEngine, "_run", watched_run)
    for plan in model.find_candidates(ctx).values():
        model.evaluate_region_on_cores(ctx, plan, configs,
                                       max_invocations=MAX_INVOCATIONS)
    assert streams and engine_walks
    assert len(walks) <= 2 * len(streams)
    assert sum(engine_walks) == 0
