"""Unit tests for loop-forest construction and region analyses."""

import pytest

from repro.analysis import build_loop_forest, loop_intervals, profile_paths
from repro.analysis.regions import attribute_baseline
from repro.core_model import OOO2
from repro.tdg import TimingEngine


class TestLoopForest:
    def test_nested_structure(self, nested_tdg):
        forest = nested_tdg.loop_tree
        assert len(forest) == 2
        roots = forest.roots
        assert len(roots) == 1
        outer = roots[0]
        assert len(outer.children) == 1
        inner = outer.children[0]
        assert inner.parent is outer
        assert inner.depth == 1
        assert inner.is_inner and not outer.is_inner

    def test_own_blocks_excludes_children(self, nested_tdg):
        outer = nested_tdg.loop_tree.roots[0]
        inner = outer.children[0]
        assert not (outer.own_blocks() & inner.blocks)

    def test_innermost_lookup(self, nested_tdg):
        forest = nested_tdg.loop_tree
        inner = forest.roots[0].children[0]
        for label in inner.blocks:
            assert forest.innermost_at("main", label) is inner

    def test_loop_of_uid(self, nested_tdg):
        forest = nested_tdg.loop_tree
        inner = forest.roots[0].children[0]
        uid = next(iter(inner.instructions())).uid
        assert forest.loop_of_uid(uid) is inner

    def test_static_size(self, vector_tdg):
        for loop in vector_tdg.loop_tree:
            assert loop.static_size() == sum(
                1 for _ in loop.instructions())

    def test_descendants(self, nested_tdg):
        outer = nested_tdg.loop_tree.roots[0]
        assert outer.descendants() == outer.children

    def test_no_loops_program(self):
        from repro.programs import assemble
        program = assemble(".func main\n li r3, 1\n halt")
        forest = build_loop_forest(program)
        assert len(forest) == 0


class TestLoopIntervals:
    def test_intervals_cover_loop_instructions(self, vector_tdg):
        intervals = loop_intervals(vector_tdg)
        forest = vector_tdg.loop_tree
        inner = [l for l in forest if l.is_inner][0]
        spans = intervals[inner.key]
        total = sum(end - start for start, end in spans)
        # Nearly the whole trace sits inside the loops.
        assert total > 0.8 * len(vector_tdg.trace)

    def test_invocation_counts(self, vector_tdg):
        # 2 passes of the inner loop = 2 invocations.
        intervals = loop_intervals(vector_tdg)
        inner = [l for l in vector_tdg.loop_tree if l.is_inner][0]
        assert len(intervals[inner.key]) == 2

    def test_outer_interval_contains_inner(self, nested_tdg):
        intervals = loop_intervals(nested_tdg)
        forest = nested_tdg.loop_tree
        outer = forest.roots[0]
        inner = outer.children[0]
        (outer_start, outer_end), = intervals[outer.key]
        for start, end in intervals[inner.key]:
            assert outer_start <= start and end <= outer_end

    def test_intervals_disjoint_per_loop(self, nested_tdg):
        intervals = loop_intervals(nested_tdg)
        for spans in intervals.values():
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_callee_stays_inside_caller_interval(self):
        from repro.programs import KernelBuilder
        from repro.tdg import construct_tdg
        k = KernelBuilder("callloop")
        out = k.array("out", 1)
        with k.function("helper"):
            k.st(out, 0, 1)
            k.ret()
        with k.function("main"):
            with k.loop(10):
                k.call("helper")
            k.halt()
        program, memory = k.build()
        tdg = construct_tdg(program, memory)
        intervals = loop_intervals(tdg)
        loop = tdg.loop_tree.roots[0]
        spans = intervals[loop.key]
        assert len(spans) == 1            # one unbroken invocation
        start, end = spans[0]
        assert end - start >= 10 * 3      # includes callee insts


class TestBaselineAttribution:
    def test_attributed_cycles_bounded_by_total(self, nested_tdg):
        engine = TimingEngine(OOO2, collect_commit_times=True)
        result = engine.run(nested_tdg.trace.instructions)
        intervals = loop_intervals(nested_tdg)
        per_loop = attribute_baseline(result.commit_times, intervals)
        outer_key = nested_tdg.loop_tree.roots[0].key
        assert 0 < per_loop[outer_key] <= result.cycles

    def test_child_cycles_within_parent(self, nested_tdg):
        engine = TimingEngine(OOO2, collect_commit_times=True)
        result = engine.run(nested_tdg.trace.instructions)
        intervals = loop_intervals(nested_tdg)
        per_loop = attribute_baseline(result.commit_times, intervals)
        forest = nested_tdg.loop_tree
        outer = forest.roots[0]
        inner = outer.children[0]
        assert per_loop[inner.key] <= per_loop[outer.key]


class TestPathProfiles:
    def test_counted_loop_single_path(self, vector_tdg):
        profiles = profile_paths(vector_tdg)
        inner = [l for l in vector_tdg.loop_tree if l.is_inner][0]
        profile = profiles[inner.key]
        assert profile.hot_path_probability == pytest.approx(1.0)
        assert profile.iterations == 256   # 128 x 2 passes

    def test_trip_count(self, vector_tdg):
        profiles = profile_paths(vector_tdg)
        inner = [l for l in vector_tdg.loop_tree if l.is_inner][0]
        assert profiles[inner.key].average_trip_count == \
            pytest.approx(128)

    def test_loop_back_probability(self, vector_tdg):
        profiles = profile_paths(vector_tdg)
        inner = [l for l in vector_tdg.loop_tree if l.is_inner][0]
        # 2 invocations x 128 iterations: back prob = 254/256.
        assert profiles[inner.key].loop_back_probability == \
            pytest.approx(254 / 256)

    def test_branchy_loop_two_paths(self, branchy_tdg):
        profiles = profile_paths(branchy_tdg)
        loop = [l for l in branchy_tdg.loop_tree if l.is_inner][0]
        profile = profiles[loop.key]
        assert len(profile.path_counts) >= 2
        assert 0.7 < profile.hot_path_probability < 0.95

    def test_insts_per_iteration(self, branchy_tdg):
        profiles = profile_paths(branchy_tdg)
        loop = [l for l in branchy_tdg.loop_tree if l.is_inner][0]
        profile = profiles[loop.key]
        assert 5 < profile.insts_per_iteration < 30
