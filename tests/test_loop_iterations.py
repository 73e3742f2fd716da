"""The loop iterations the analyses share equal the walkers they replaced.

Every per-iteration view of a loop (SIMD's and DP-CGRA's iteration
groups, the dependence and slicing samples, Trace-P's on-trace test)
reads one fact: where each iteration of an invocation starts and which
blocks it runs.  The references below are the definitions that fact
had when three separate walkers computed it, kept here without
shortcuts:

- :func:`reference_iteration_spans`: an iteration starts wherever the
  loop header's first instruction runs, except at the invocation's
  first row;
- :func:`reference_iteration_path`: one label per entry to a block of
  the loop's function, a mid-block first row counted as its block,
  consecutive repeats collapsed (what Trace-P compared with the hot
  path);
- :func:`reference_path_counts`: the path profile, one label per block
  entry, counted per iteration.

They are checked on every loop of all 48 workloads at scale 0.1 and on
drawn instruction sequences over a program whose loops call a function
with a loop of its own.  No workload executes a ``call``, so the drawn
sequences are what exercise callee rows inside an iteration, calls and
returns splitting nothing, and intervals that start mid-block.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import AnalysisContext
from repro.isa import Opcode
from repro.obs import isolated
from repro.programs import KernelBuilder
from repro.sim.trace import DynInst
from repro.tdg import construct_tdg
from repro.workloads import WORKLOADS

SCALE = 0.1


# ---------------------------------------------------------------------------
# References.

def _in_function_block(static, loop):
    """Whether *static* sits in one of *loop*'s blocks, by function
    name and block label."""
    if static is None:
        return False
    block = static.block
    return (block.function.name == loop.function.name
            and block.label in loop.blocks)


def reference_iteration_spans(trace, loop, start, end):
    """Invocation ``[start, end)`` split into per-iteration spans."""
    spans = []
    iter_start = start
    for index in range(start, end):
        static = trace[index].static
        if (_in_function_block(static, loop)
                and static.block.label == loop.header
                and static.index == 0 and index > iter_start):
            spans.append((iter_start, index))
            iter_start = index
    if end > iter_start:
        spans.append((iter_start, end))
    return spans


def reference_iteration_path(trace, start, end, loop):
    """Block-label path of one iteration span, repeats collapsed."""
    path = []
    for index in range(start, end):
        static = trace[index].static
        if not _in_function_block(static, loop):
            continue
        if static.index == 0 or not path:
            if not path or path[-1] != static.block.label:
                path.append(static.block.label)
    return path


def reference_path_counts(trace, loop, intervals):
    """Path profile of *loop* over its invocation *intervals*."""
    counts = Counter()
    for start, end in intervals:
        path = []
        for index in range(start, end):
            static = trace[index].static
            if not _in_function_block(static, loop):
                continue
            label = static.block.label
            if static.index == 0:
                if label == loop.header and path:
                    counts[tuple(path)] += 1
                    path = []
                path.append(label)
            elif not path:
                path.append(label)
        if path:
            counts[tuple(path)] += 1
    return counts


def _collapse(path):
    """*path* with each label equal to its predecessor dropped."""
    return [label for at, label in enumerate(path)
            if not at or path[at - 1] != label]


# ---------------------------------------------------------------------------
# What the analyses record.

def recorded_iterations(ctx, loop, interval):
    """``(spans, paths)`` the analyses read for one invocation."""
    profile = ctx.path_profiles[loop.key]
    return profile.spans[interval], profile.paths[interval]


def check_loops(ctx):
    """Every loop of *ctx* against the references; returns the number
    of ``(intervals, inner-loop iterations)`` checked."""
    trace = ctx.tdg.trace.instructions
    intervals_checked = iterations_checked = 0
    for loop in ctx.forest:
        intervals = ctx.intervals[loop.key]
        profile = ctx.path_profiles[loop.key]
        counts = reference_path_counts(trace, loop, intervals)
        assert profile.path_counts == counts, loop.key
        recorded = Counter()
        for interval in intervals:
            spans, paths = recorded_iterations(ctx, loop, interval)
            assert spans == ctx.spans_of(loop, interval)
            assert spans == reference_iteration_spans(
                trace, loop, *interval), (loop.key, interval)
            assert len(paths) == len(spans)
            recorded.update(map(tuple, paths))
            intervals_checked += 1
            if not loop.is_inner:
                continue
            for (start, end), path in zip(spans, paths):
                assert _collapse(list(path)) == reference_iteration_path(
                    trace, start, end, loop), (loop.key, start, end)
                iterations_checked += 1
        # The recorded paths are the ones the profile counted.
        assert recorded == counts, loop.key
    return intervals_checked, iterations_checked


# ---------------------------------------------------------------------------
# Every loop of every workload.

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_iterations_equal_the_references(name):
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    trace = ctx.tdg.trace.instructions
    check_loops(ctx)
    for loop in ctx.forest:
        if not loop.is_inner:
            continue
        # An inner loop never enters a block twice in a row within one
        # iteration, so its paths need no collapsing, and they are what
        # the profile counted.
        paths = Counter()
        for interval in ctx.intervals[loop.key]:
            spans, recorded = recorded_iterations(ctx, loop, interval)
            for (start, end), path in zip(spans, recorded):
                assert list(path) == reference_iteration_path(
                    trace, start, end, loop)
                paths[tuple(path)] += 1
        assert paths == ctx.path_profiles[loop.key].path_counts


# ---------------------------------------------------------------------------
# A program with calls: interpreted, and as drawn sequences.

def _calling_program():
    """An outer loop calling a function with a loop of its own, and an
    inner loop whose else-side calls it too."""
    k = KernelBuilder("iterations")
    out = k.array("out", 4)
    with k.function("helper"):
        with k.loop(3) as i:
            k.st(out, i, 1)
        k.ret()
    with k.function("main"):
        with k.loop(3) as i:
            k.call("helper")
            with k.loop(4) as j:
                k.if_(k.slt(j, i), lambda: k.st(out, j, 2),
                      lambda: k.call("helper"))
        k.halt()
    return k.build()


_PROGRAM, _MEMORY = _calling_program()
_STATICS = _PROGRAM.static_instructions


def _context(trace):
    """An :class:`AnalysisContext` over *trace* of the calling
    program."""
    tdg = SimpleNamespace(program=_PROGRAM,
                          trace=SimpleNamespace(instructions=trace))
    return AnalysisContext(tdg)


def test_the_interpreted_calling_program_equals_the_references():
    tdg = construct_tdg(_PROGRAM, _MEMORY)
    ctx = AnalysisContext(tdg)
    inner, = [loop for loop in ctx.forest
              if loop.is_inner and loop.function.name == "main"]
    assert any(inst.opcode is Opcode.CALL
               for inst in inner.instructions())
    intervals, iterations = check_loops(ctx)
    assert intervals and iterations


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_STATICS) - 1),
                          st.integers(1, 8)), max_size=40))
def test_drawn_sequences_equal_the_references(runs):
    """Any sequence of static instructions (calls and returns balanced
    or not, runs starting mid-block) splits and profiles as the
    references do."""
    trace = [DynInst(seq, static, static.opcode)
             for seq, static in enumerate(
                 static for start, length in runs
                 for static in _STATICS[start:start + length])]
    check_loops(_context(trace))


def test_the_context_spans_its_walks_and_counts_iterations():
    """The loop analyses run inside ``analysis.*`` spans, dependence
    and slice analyses once per loop however often they are asked,
    and every recorded iteration is counted."""
    tdg = construct_tdg(_PROGRAM, _MEMORY)
    with isolated() as (registry, recorder):
        ctx = AnalysisContext(tdg)
        for _ in range(2):
            for loop in ctx.forest:
                ctx.dep_info(loop)
                ctx.slice_info(loop)
        names = Counter(record["name"] for record in recorder.records)
        iterations = registry.total("repro_loop_iterations_total")
    loops = len(ctx.forest)
    assert loops == 3
    assert names == {"analysis.context": 1, "analysis.dep_info": loops,
                     "analysis.slice_info": loops}
    assert iterations == sum(
        len(spans) for profile in ctx.path_profiles.values()
        for spans in profile.spans.values()) > 0
