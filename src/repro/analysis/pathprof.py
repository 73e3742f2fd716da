"""Loop path profiling (the Ball-Larus role in the paper) and the loop
iterations every analysis reads.

One walk over each loop's invocations defines its iterations.  An
iteration starts wherever the first instruction of the loop header
runs, except at the invocation's first row; callee rows stay inside
the iteration.  Its path is the loop's own blocks it enters, one label
per block entry (a first row that starts mid-block counts as its
block).  The walk records every iteration's ``[start, end)`` span and
path per invocation (:attr:`LoopPathProfile.spans`,
:attr:`LoopPathProfile.paths`) and counts the paths.

Trace-P uses the hot path and its probability, and runs an iteration
on the trace when its recorded path is the hot path; SIMD's
profitability test uses expected dynamic instructions per iteration;
the dependence and slicing analyses and every per-iteration transform
read the spans; the Amdahl tree uses trip counts.
"""

from collections import Counter

from repro.isa.opcodes import Opcode
from repro.analysis.regions import loop_intervals


class LoopPathProfile:
    """Path statistics for one loop."""

    def __init__(self, loop):
        self.loop = loop
        self.invocations = 0
        self.iterations = 0
        self.dyn_insts = 0
        self.branch_insts = 0           # dynamic conditional branches
        self.path_counts = Counter()    # tuple(labels) -> count
        # Invocation interval -> its iterations, in trace order: the
        # [start, end) spans and, one per span, the path.
        self.spans = {}
        self.paths = {}

    @property
    def key(self):
        return self.loop.key

    @property
    def hot_path(self):
        if not self.path_counts:
            return ()
        return self.path_counts.most_common(1)[0][0]

    @property
    def hot_path_probability(self):
        if not self.iterations:
            return 0.0
        return self.path_counts.most_common(1)[0][1] / self.iterations

    @property
    def loop_back_probability(self):
        """Probability an iteration is followed by another (paper's
        Trace-P eligibility uses > 80%)."""
        if not self.iterations:
            return 0.0
        return max(0.0, (self.iterations - self.invocations)
                   / self.iterations)

    @property
    def average_trip_count(self):
        if not self.invocations:
            return 0.0
        return self.iterations / self.invocations

    @property
    def branch_fraction(self):
        """Dynamic conditional-branch density inside the loop."""
        if not self.dyn_insts:
            return 0.0
        return self.branch_insts / self.dyn_insts

    @property
    def insts_per_iteration(self):
        if not self.iterations:
            return 0.0
        return self.dyn_insts / self.iterations

    def __repr__(self):
        return (f"<LoopPathProfile {self.key}: {self.iterations} iters, "
                f"hot={self.hot_path_probability:.2f}>")


def profile_paths(tdg, forest=None, intervals=None):
    """Profile every loop; returns {loop key: LoopPathProfile}."""
    if forest is None:
        forest = tdg.loop_tree
    if intervals is None:
        intervals = loop_intervals(tdg, forest)
    trace = tdg.trace.instructions
    profiles = {}
    for loop in forest:
        profile = LoopPathProfile(loop)
        header = loop.header
        # The loop's own static instructions (callee code and blocks
        # outside the loop read None): (branch, block entry, in the
        # header, block label).
        facts = {static: (static.opcode is Opcode.BR, static.index == 0,
                          label == header, label)
                 for label in loop.blocks
                 for static in loop.function.block(label)}
        facts_get = facts.get
        dyn_insts = branch_insts = 0
        for interval in intervals.get(loop.key, ()):
            start, end = interval
            profile.invocations += 1
            spans = []
            paths = []
            iter_start = start
            current_path = []
            for index, dyn in enumerate(trace[start:end], start):
                fact = facts_get(dyn.static)
                if fact is None:
                    continue
                dyn_insts += 1
                is_branch, entry, in_header, label = fact
                if is_branch:
                    branch_insts += 1
                # A block entry is the execution of its first inst.
                if entry:
                    if in_header and index > iter_start:
                        spans.append((iter_start, index))
                        paths.append(tuple(current_path))
                        iter_start = index
                        current_path = []
                    current_path.append(label)
                elif not current_path:
                    # Invocation started mid-block (do-while latch):
                    # the block counts as entered.
                    current_path.append(label)
            if end > iter_start:
                spans.append((iter_start, end))
                paths.append(tuple(current_path))
            profile.spans[interval] = spans
            profile.paths[interval] = paths
            profile.path_counts.update(paths)
            profile.iterations += len(spans)
        profile.dyn_insts = dyn_insts
        profile.branch_insts = branch_insts
        profiles[loop.key] = profile
    return profiles
