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

Without the kernel the trace is not lowered, so every loop takes the
Python path, which these tests check instead of skipping.
"""

import pytest

from repro.accel import AnalysisContext
from repro.exocore import evaluate_benchmark
from repro.exocore.evaluator import _concat
from repro.obs import isolated
from repro.tdg import fastpath
from repro.tdg.fastpath import kernel_available, stream_events
from repro.workloads import WORKLOADS

SCALE = 0.1


def _bits(events):
    """Everything pricing reads, floats as their exact bits."""
    return ([(name, None if value is None else value.hex())
             for name, value in events.components.items()],
            events.counts, events.regfile)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_events_equal_the_python_walk_for_every_loop(name):
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    facts = ctx.trace_facts
    if not kernel_available():
        assert facts is None
        return
    assert facts is not None
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
    """Every core's baseline and the baseline's priced-instruction
    count; without the kernel when *kernel* is false, else as the
    environment has it."""
    if not kernel:
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    fastpath._reset_kernel()
    tdg = WORKLOADS[name].construct_tdg(scale=SCALE)
    with isolated() as (registry, _recorder):
        evaluation = evaluate_benchmark(tdg, bsa_names=(), name=name)
        priced = registry.counter("repro_insts_priced_total") \
            .value(path="baseline")
    return {
        core: (baseline.cycles, baseline.energy_pj.hex(),
               baseline.per_loop_cycles,
               {key: value.hex()
                for key, value in baseline.per_loop_energy.items()})
        for core, baseline in evaluation.baselines.items()}, priced


@pytest.mark.parametrize("name", ("conv", "djpeg1", "181.mcf",
                                  "453.povray"))
def test_per_loop_baselines_equal_with_and_without_the_kernel(
        name, monkeypatch):
    try:
        with_kernel = _baselines(name, monkeypatch, kernel=True)
        without = _baselines(name, monkeypatch, kernel=False)
    finally:
        monkeypatch.undo()
        fastpath._reset_kernel()
    assert with_kernel == without
    baselines, priced = with_kernel
    assert priced > 0
    assert any(baseline[2] for baseline in baselines.values())
