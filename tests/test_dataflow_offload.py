"""The C dataflow offload equals the Python transform it replaces.

With the kernel, NS-DF and Trace-P regions skip the
:class:`~repro.tdg.fastpath.StreamBuilder`: one C pass over the lowered
trace (:class:`~repro.tdg.fastpath.OffloadTable`) applies
:func:`~repro.accel.base.offload_dataflow`'s rules, lowers the result and
counts its energy events.  The Python transform stays as the reference.
Every NS-DF and Trace-P case of ``tests/test_transform_digests.py``, in
fast and detailed mode, and randomly drawn streams (strays, broken CFU
chains, live-in deps, memory deps, mispeculated Trace-P iterations) must
give ``finish()``'s 15 columns, accelerator tags and
:class:`~repro.energy.mcpat.EnergyEvents` exactly: component order,
float bits, counts and regfile categories.

Without the kernel every dataflow region takes the Python path, which
these tests check instead of skipping.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import BSA_REGISTRY, AnalysisContext
from repro.accel import base, ns_df, trace_p
from repro.accel.base import SeqAllocator
from repro.accel.ns_df import NSDataflowModel
from repro.accel.trace_p import TraceProcessorModel
from repro.analysis.cfu import CFUSchedule
from repro.exocore import evaluate_benchmark
from repro.isa import Instruction, Opcode
from repro.obs import current_span_id, isolated
from repro.sim.trace import DynInst
from repro.tdg import fastpath
from repro.tdg.fastpath import LoweredStream, StreamBuilder, kernel_available
from repro.workloads import WORKLOADS
from tests.test_fastpath_equivalence import min_ns
from tests.test_transform_digests import (
    MAX_INVOCATIONS, SCALE, VECTOR_LENS, WIDTH_SUBSET,
)
from tests.transformed import transform

DATAFLOW = ("ns_df", "trace_p")


def assert_same_result(actual, expected):
    """*actual* ``(timed, events)`` equals *expected* exactly."""
    timed, events = actual
    want_timed, want_events = expected
    assert timed.__class__ is want_timed.__class__ is LoweredStream
    assert timed.accel_tags == want_timed.accel_tags
    for field in LoweredStream.FIELDS:
        assert getattr(timed, field) == getattr(want_timed, field), field
    assert list(events.components.items()) \
        == list(want_events.components.items())
    assert events.counts == want_events.counts
    assert events.regfile == want_events.regfile


def check_region(model, ctx, plan, intervals, vector_len=4):
    """Every interval of one region, through the offload (with the
    kernel) and through the builder; returns the intervals checked."""
    offload = model.dataflow_offload(ctx, plan)
    if not kernel_available():
        # The Python path: no lowered trace, no offload.
        assert ctx.trace_facts is None and offload is None
        return 0
    assert offload is not None
    seq_base, builder_seqs = SeqAllocator._BASE, SeqAllocator()
    for interval in intervals:
        out = transform(model, ctx, plan, interval, vector_len,
                        builder_seqs)
        timed, events, seq_base = offload.run(
            ctx.trace_facts, interval,
            model.offload_spans(ctx, plan, interval), seq_base)
        assert_same_result((timed, events), out.finish())
        assert seq_base == builder_seqs._next
    return len(intervals)


# ---------------------------------------------------------------------------
# Every NS-DF and Trace-P case of the digest grid.

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_offload_equals_the_python_transform(name):
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    vector_lens = (4,) + (VECTOR_LENS if name in WIDTH_SUBSET else ())
    regions = 0
    for bsa in DATAFLOW:
        for detailed in (False, True):
            model = BSA_REGISTRY[bsa](detailed=detailed)
            for vector_len in vector_lens:
                plans = model.find_candidates(ctx)
                for key in sorted(plans):
                    regions += 1
                    check_region(model, ctx, plans[key],
                                 ctx.intervals[key][:MAX_INVOCATIONS],
                                 vector_len)
    if kernel_available():
        assert ctx.trace_facts is not None
    assert regions


def test_both_models_and_every_rule_are_exercised():
    """djpeg1's dataflow regions cover switches, memory ops, folded
    compound ops and forwarding edges, and Trace-P's both modes."""
    ctx = AnalysisContext(WORKLOADS["djpeg1"].construct_tdg(scale=SCALE))
    modes = set()
    opcodes = set()
    for bsa in DATAFLOW:
        model = BSA_REGISTRY[bsa]()
        for plan in model.find_candidates(ctx).values():
            for interval in ctx.intervals[plan["loop"].key][:2]:
                rows = transform(model, ctx, plan, interval, 4,
                                 SeqAllocator()).rows
                opcodes.update(row.opcode for row in rows
                               if row.accel is not None)
                if any(row.opcode is Opcode.CFU and row.vector_width > 1
                       for row in rows):
                    opcodes.add("fold")
                if bsa == "trace_p":
                    modes.update(
                        model.offload_spans(ctx, plan, interval)[2::3])
    assert {Opcode.SWITCH, Opcode.CFU, Opcode.LD, "fold"} <= opcodes
    assert modes == {fastpath.SPAN_ON_TRACE, fastpath.SPAN_REPLAY}


# ---------------------------------------------------------------------------
# Drawn streams.

_LOOP_OPS = (Opcode.ADD, Opcode.MUL, Opcode.MOV, Opcode.LI, Opcode.FADD,
             Opcode.DIV, Opcode.LD, Opcode.ST, Opcode.NOP, Opcode.JMP)
_LEVELS = (("l1", 4), ("l2", 12), ("dram", 176))


def _block(label, function="loop_fn"):
    return SimpleNamespace(label=label,
                           function=SimpleNamespace(name=function))


def _static(uid, opcode, block, index, dest=True):
    inst = Instruction(opcode, dest=3 if dest or opcode is Opcode.LD
                       else None, srcs=(4, 5), target="H")
    inst.uid, inst.block, inst.index = uid, block, index
    return inst


def drawn_region(seed, stray_rate, break_rate, cold_rate):
    """A synthetic loop region and its trace, shaped like an
    interpreter trace: seqs are positions, deps point back (some before
    the interval, as live-ins), loads and stores carry memory deps.

    The loop has a hot block ``H`` and a cold block ``C``; an iteration
    that enters ``C`` leaves Trace-P's hot path.  Compute ops are
    scheduled in CFU chains whose instances are sometimes skipped or
    repeated (broken chains); stray instructions (another function, or
    no static at all) are mixed in at *stray_rate*.
    """
    rng = random.Random(seed)
    hot, cold, stray_block = _block("H"), _block("C"), _block("S", "callee")
    statics = []

    def make(opcode, block, index):
        inst = _static(len(statics), opcode, block, index,
                       dest=rng.random() < 0.8)
        statics.append(inst)
        return inst

    hot_body = [make(rng.choice(_LOOP_OPS), hot, index)
                for index in range(rng.randrange(3, 10))]
    hot_body.append(make(Opcode.BR, hot, len(hot_body)))
    cold_body = [make(rng.choice(_LOOP_OPS), cold, index)
                 for index in range(rng.randrange(1, 5))]
    cold_body.append(make(Opcode.JMP, cold, len(cold_body)))
    strays = [make(rng.choice(_LOOP_OPS), stray_block, index)
              for index in range(3)]
    loop_uids = frozenset(inst.uid for inst in hot_body + cold_body)

    schedule = CFUSchedule(loop=None, max_cfu_size=4, cross_control=True)
    fusable = [inst.uid for inst in hot_body + cold_body
               if inst.opcode.is_compute
               or inst.opcode in (Opcode.MOV, Opcode.LI)]
    while fusable:
        size = rng.randrange(1, 5)
        chain, fusable = fusable[:size], fusable[size:]
        for uid in chain:
            schedule.cfu_of[uid] = len(schedule.cfus)
        schedule.cfus.append(chain)

    trace = []
    spans = []
    last_store = {}

    def emit(static):
        seq = len(trace)
        opcode = Opcode.ADD if static is None else static.opcode
        deps = tuple(rng.randrange(seq) for _ in range(rng.randrange(4))
                     if seq)
        fields = {}
        if opcode in (Opcode.LD, Opcode.ST):
            level, latency = rng.choice(_LEVELS)
            addr = rng.randrange(16)
            fields.update(mem_addr=addr, mem_lat=latency, mem_level=level,
                          mem_dep=last_store.get(addr))
            if opcode is Opcode.ST:
                last_store[addr] = seq
        if opcode is Opcode.BR:
            fields["mispredicted"] = rng.random() < 0.3
        trace.append(DynInst(seq, static, opcode, src_deps=deps,
                             icache_lat=rng.choice((0, 0, 12)), **fields))

    def maybe_stray():
        while rng.random() < stray_rate:
            emit(rng.choice(strays + [None]))

    for _ in range(rng.randrange(5, 15)):     # before the interval
        emit(rng.choice(hot_body))
    start = len(trace)
    for _ in range(rng.randrange(1, 12)):
        if rng.random() < 0.1:
            emit(rng.choice(hot_body))          # outside every span
        span_start = len(trace)
        body = hot_body[:-1] + (cold_body if rng.random() < cold_rate
                                else []) + hot_body[-1:]
        for inst in body:
            maybe_stray()
            if rng.random() < break_rate:
                continue                        # a skipped member
            emit(inst)
            if rng.random() < break_rate:
                emit(inst)                      # a repeated one
        spans.append((span_start, len(trace)))
        if rng.random() < 0.1:
            spans.append((len(trace), len(trace)))
    end = len(trace)

    loop = SimpleNamespace(key=("loop_fn", "H"), uids=loop_uids,
                           function=SimpleNamespace(name="loop_fn"),
                           blocks={"H", "C"})
    ctx = object.__new__(AnalysisContext)
    ctx.tdg = SimpleNamespace(
        trace=SimpleNamespace(instructions=trace),
        program=SimpleNamespace(static_instructions=statics))
    ctx._baseline = None
    ctx._trace_facts = False
    ctx._iteration_spans = {(loop.key, (start, end)): spans}
    plan = {"loop": loop, "schedule": schedule, "hot_path": ("H",)}
    return ctx, plan, (start, end)


@given(seed=st.integers(0, 2 ** 32 - 1),
       stray_rate=st.sampled_from((0.0, 0.1, 0.4)),
       break_rate=st.sampled_from((0.0, 0.1, 0.3)),
       cold_rate=st.sampled_from((0.0, 0.3, 1.0)),
       detailed=st.booleans())
@settings(max_examples=120, deadline=None)
def test_drawn_regions_offload_like_the_python_transform(
        seed, stray_rate, break_rate, cold_rate, detailed):
    ctx, plan, interval = drawn_region(seed, stray_rate, break_rate,
                                       cold_rate)
    for model_class in (NSDataflowModel, TraceProcessorModel):
        check_region(model_class(detailed=detailed), ctx, plan,
                     [interval])


def test_a_transformed_trace_keeps_the_python_path():
    """The offload reads a row's seq as its position and ignores
    transform fields, so a trace that breaks either has no facts."""
    for change in ({"seq": 10 ** 6}, {"vector_width": 2},
                   {"accel": "ns_df"}, {"extra_deps": ((0, 1),)}):
        ctx, plan, _ = drawn_region(7, 0.1, 0.1, 0.3)
        trace = ctx.tdg.trace.instructions
        trace[-1] = trace[-1].clone(**change)
        assert ctx.trace_facts is None, change
        assert NSDataflowModel().dataflow_offload(ctx, plan) is None


def test_a_custom_transform_keeps_the_python_path():
    class Custom(NSDataflowModel):
        def transform_interval(self, *args):
            return super().transform_interval(*args)

    ctx, plan, _ = drawn_region(3, 0.1, 0.1, 0.3)
    assert Custom().dataflow_offload(ctx, plan) is None


# ---------------------------------------------------------------------------
# Gates: no Python row per instruction, the same work counted.

def test_no_python_row_on_the_offload_path(monkeypatch):
    """Machine-independent gate: with the kernel, evaluating 181.mcf
    and djpeg1 calls ``offload_dataflow`` and ``StreamBuilder.emit``
    zero times for NS-DF and Trace-P (3,663 and 2,511 calls for
    181.mcf, 6,123 and 3,982 for djpeg1, before the offload)."""
    if not kernel_available():
        pytest.skip("the offload needs the compiled kernel")
    calls = {"offload_dataflow": 0, "emit": 0}
    offload, emit = base.offload_dataflow, StreamBuilder.emit

    def counting_offload(*args, **kwargs):
        calls["offload_dataflow"] += 1
        return offload(*args, **kwargs)

    def counting_emit(self, *args, **kwargs):
        calls["emit"] += 1
        return emit(self, *args, **kwargs)

    for module in (ns_df, trace_p):
        monkeypatch.setattr(module, "offload_dataflow", counting_offload)
    monkeypatch.setattr(StreamBuilder, "emit", counting_emit)
    for name in ("181.mcf", "djpeg1"):
        tdg = WORKLOADS[name].construct_tdg(scale=0.1)
        evaluation = evaluate_benchmark(tdg, bsa_names=DATAFLOW, name=name)
        assert any(evaluation.plans.values())
    assert calls == {"offload_dataflow": 0, "emit": 0}


def _evaluate_counting(name, monkeypatch, kernel):
    """Work counters of one evaluation, and the span each offload call
    ran in; without the kernel when *kernel* is false, else as the
    environment has it."""
    if not kernel:
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    fastpath._reset_kernel()
    offload_spans = []
    run = fastpath.OffloadTable.run

    def recording_run(self, *args):
        offload_spans.append(current_span_id())
        return run(self, *args)

    monkeypatch.setattr(fastpath.OffloadTable, "run", recording_run)
    tdg = WORKLOADS[name].construct_tdg(scale=0.1)
    with isolated() as (registry, recorder):
        evaluate_benchmark(tdg, name=name)
        counts = {
            (metric, bsa): registry.counter(metric).value(path=bsa)
            for metric in ("repro_insts_transformed_total",
                           "repro_insts_priced_total")
            for bsa in DATAFLOW}
        spans = {record["id"]: record for record in recorder.records}
    monkeypatch.setattr(fastpath.OffloadTable, "run", run)
    return counts, [spans.get(span_id) for span_id in offload_spans]


@pytest.mark.parametrize("name", ("181.mcf", "djpeg1"))
def test_work_counters_match_the_python_path(name, monkeypatch):
    """The offload counts the instructions the Python transform
    counts, and runs inside ``accel.transform``."""
    kernel_counts, kernel_spans = _evaluate_counting(
        name, monkeypatch, kernel=True)
    try:
        python_counts, python_spans = _evaluate_counting(
            name, monkeypatch, kernel=False)
    finally:
        monkeypatch.undo()
        fastpath._reset_kernel()
    assert not python_spans
    assert kernel_counts == python_counts
    assert python_counts[("repro_insts_transformed_total", "ns_df")] > 0
    assert bool(kernel_spans) == kernel_available()
    for record in kernel_spans:
        assert record["name"] == "accel.transform"
        assert record["args"]["bsa"] in DATAFLOW


# ---------------------------------------------------------------------------
# Stage floor.

#: Acceptance floor: the C offload of 181.mcf's NS-DF regions at scale
#: 0.1 (the plan's table and every evaluated interval) must beat
#: ``transform_interval`` + ``finish()`` by at least this factor.
OFFLOAD_FLOOR = 10.0


@pytest.mark.bench
def test_offload_beats_the_python_transform_by_the_floor():
    if not kernel_available():
        pytest.skip("no compiled kernel to time")
    ctx = AnalysisContext(WORKLOADS["181.mcf"].construct_tdg(scale=0.1))
    model = NSDataflowModel()
    plans = model.find_candidates(ctx)
    assert plans and ctx.trace_facts is not None
    regions = [(plan, ctx.intervals[key][:MAX_INVOCATIONS])
               for key, plan in sorted(plans.items())]

    def offloaded():
        for plan, intervals in regions:
            offload = model.dataflow_offload(ctx, plan)
            seq = SeqAllocator._BASE
            for interval in intervals:
                _, _, seq = offload.run(
                    ctx.trace_facts, interval,
                    model.offload_spans(ctx, plan, interval), seq)

    def transformed():
        for plan, intervals in regions:
            seqs = SeqAllocator()
            for interval in intervals:
                transform(model, ctx, plan, interval, 4, seqs).finish()

    offload_ns = min_ns(offloaded, 30)
    python_ns = min_ns(transformed, 5)
    assert python_ns / offload_ns >= OFFLOAD_FLOOR, (
        f"offload {offload_ns / 1000:.0f} us vs Python transform "
        f"{python_ns / 1000:.0f} us")
