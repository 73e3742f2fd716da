"""Each loop's baseline energy events, from the C offload, equal the
Python walk.

:func:`~repro.exocore.evaluator.evaluate_benchmark` reduces every
loop's spans of the trace to :class:`~repro.energy.mcpat.EnergyEvents`.
With the kernel that is one offload call over the lowered trace with
every static instruction a stray
(:meth:`~repro.tdg.fastpath.TraceFacts.span_events`); without it,
:func:`~repro.tdg.fastpath.stream_events` over the loop's rows, which
stays the reference.  Both must give the same component order, float
bits, counts and regfile categories for every loop of every workload.

The whole trace is not walked either: with the kernel, the
interpreter's columns are packed into the lowered trace, its
:class:`~repro.tdg.fastpath.TraceFacts` and its events
(:func:`~repro.tdg.fastpath.baseline_from_columns`).  For every
workload the packed buffers must equal ``finish()`` plus
``trace_facts()`` over the same rows byte for byte, and the events bit
for bit.

Without the kernel the trace is not lowered, so every loop takes the
Python path, which these tests check instead of skipping.
"""

import pytest

from repro.accel import AnalysisContext
from repro.exocore import evaluate_benchmark
from repro.exocore.evaluator import _concat
from repro.obs import isolated
from repro.tdg import fastpath
from repro.tdg.fastpath import (
    LoweredStream, StreamBuilder, baseline_from_columns, kernel_available,
    stream_events, trace_facts,
)
from repro.workloads import WORKLOADS
from tests.test_fastpath_equivalence import min_ns

SCALE = 0.1


def _bits(events):
    """Everything pricing reads, floats as their exact bits."""
    return ([(name, None if value is None else value.hex())
             for name, value in events.components.items()],
            events.counts, events.regfile)


def walked_baseline(trace):
    """``(lowered, events, facts)`` of *trace* the reference way: its
    rows through ``finish()``, then ``trace_facts()``."""
    out = StreamBuilder()
    out.extend(trace.instructions)
    lowered, events = out.finish()
    return lowered, events, trace_facts(trace.instructions, lowered,
                                        events)


def assert_same_baseline(packed, walked):
    """*packed* ``(lowered, events, facts)`` equals *walked*: the 15
    buffers, accelerator tags and four fact columns byte for byte, the
    events bit for bit."""
    lowered, events, facts = packed
    want_lowered, want_events, want_facts = walked
    assert lowered.__class__ is want_lowered.__class__ is LoweredStream
    assert lowered.accel_tags == want_lowered.accel_tags == ()
    for field in LoweredStream.FIELDS:
        got, want = getattr(lowered, field), getattr(want_lowered, field)
        assert (got.typecode, got.tobytes()) \
            == (want.typecode, want.tobytes()), field
    assert len(facts._columns) == len(want_facts._columns) == 4
    for got, want in zip(facts._columns, want_facts._columns):
        assert (got.typecode, got.tobytes()) \
            == (want.typecode, want.tobytes())
    assert _bits(events) == _bits(want_events)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_events_equal_the_python_walk_for_every_loop(name):
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    assert ctx.tdg.trace.columns is not None
    facts = ctx.trace_facts
    # Dropped, packed or not.
    assert ctx.tdg.trace.columns is None
    if not kernel_available():
        assert facts is None
        return
    assert facts is not None
    assert_same_baseline((*ctx.baseline(), facts),
                         walked_baseline(ctx.tdg.trace))
    trace = ctx.tdg.trace.instructions
    loops = [spans for spans in ctx.intervals.values() if spans]
    assert loops
    for spans in loops:
        assert _bits(facts.span_events(spans)) \
            == _bits(stream_events(_concat(trace, spans)))


def test_spans_with_gaps_single_rows_and_the_whole_trace():
    ctx = AnalysisContext(WORKLOADS["djpeg1"].construct_tdg(scale=SCALE))
    facts = ctx.trace_facts
    if facts is None:
        pytest.skip("no compiled kernel: the trace is not lowered")
    trace = ctx.tdg.trace.instructions
    n = len(trace)
    for spans in ([(0, n)], [(0, 1)], [(n - 1, n)],
                  [(3, 4), (10, 11), (n - 2, n)],
                  [(0, n // 3), (n // 2, n // 2 + 7), (n - 50, n)]):
        assert _bits(facts.span_events(spans)) \
            == _bits(stream_events(_concat(trace, spans)))
    whole = facts.span_events([(0, n)])
    assert _bits(whole) == _bits(ctx.baseline()[1])


def _baselines(name, monkeypatch, kernel):
    """Every core's baseline, and the work of one cold baseline-only
    evaluation: the baseline's priced- and lowered-instruction counts
    and the rows walked in Python (:func:`~repro.tdg.fastpath._walk`),
    against the trace length and the loops' span lengths; without the
    kernel when *kernel* is false, else as the environment has it."""
    walked = []
    walk = fastpath._walk

    def counting_walk(rows, *args):
        walked.append(len(rows))
        return walk(rows, *args)

    with monkeypatch.context() as patch:
        if not kernel:
            patch.setenv("REPRO_NO_KERNEL", "1")
        fastpath._reset_kernel()
        patch.setattr(fastpath, "_walk", counting_walk)
        tdg = WORKLOADS[name].construct_tdg(scale=SCALE)
        with isolated() as (registry, _recorder):
            evaluation = evaluate_benchmark(tdg, bsa_names=(), name=name)
            priced, lowered = (
                registry.counter(counter_name).value(path="baseline")
                for counter_name in ("repro_insts_priced_total",
                                     "repro_insts_lowered_total"))
    spans = sum(end - start for spans in evaluation.ctx.intervals.values()
                for start, end in spans)
    return {
        core: (baseline.cycles, baseline.energy_pj.hex(),
               baseline.per_loop_cycles,
               {key: value.hex()
                for key, value in baseline.per_loop_energy.items()})
        for core, baseline in evaluation.baselines.items()}, priced, \
        (lowered, sum(walked), len(tdg.trace), spans)


@pytest.mark.parametrize("name", ("conv", "djpeg1", "181.mcf",
                                  "453.povray"))
def test_per_loop_baselines_equal_with_and_without_the_kernel(
        name, monkeypatch):
    try:
        *with_kernel, work = _baselines(name, monkeypatch, kernel=True)
        kernel = kernel_available()
        *without, python_work = _baselines(name, monkeypatch,
                                           kernel=False)
    finally:
        monkeypatch.undo()
        fastpath._reset_kernel()
    assert with_kernel == without
    baselines, priced = with_kernel
    assert priced > 0
    assert any(baseline[2] for baseline in baselines.values())
    # The work gate: the kernel path lowers and prices what the walk
    # did, and walks no row in Python.
    lowered, walked, n, spans = work
    assert priced == n + spans
    assert python_work == (0, n + spans, n, spans)
    if kernel:
        assert (lowered, walked) == (n, 0)


#: Acceptance floor: packing 453.povray's baseline at scale 0.5 from the
#: interpreter's columns must beat ``finish()`` + ``trace_facts()`` over
#: the same rows by at least this factor.
PACK_FLOOR = 2.0


@pytest.mark.bench
def test_packing_the_columns_beats_walking_the_rows_by_the_floor():
    if not kernel_available():
        pytest.skip("no compiled kernel: the trace is not lowered")
    trace = WORKLOADS["453.povray"].construct_tdg(scale=0.5).trace
    columns = trace.columns

    def packed():
        trace.columns = columns
        assert baseline_from_columns(trace) is not None

    pack_ns = min_ns(packed, 5)
    walk_ns = min_ns(lambda: walked_baseline(trace), 5)
    assert walk_ns / pack_ns >= PACK_FLOOR, (
        f"packing {pack_ns / 1000:.0f} us vs walking "
        f"{walk_ns / 1000:.0f} us")
