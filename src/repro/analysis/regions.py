"""Dynamic region segmentation: loop-invocation intervals in the trace.

The ExoCore switches execution between core and BSAs at loop entry
points (paper section 2.3: "fully switch between a core and accelerator
model of execution at loop entry points or function calls").  This
module finds, for every static loop, the contiguous trace intervals
[start, end) covering each dynamic invocation, respecting function-call
nesting (a callee's instructions stay inside the caller's interval).
"""


def _loop_chains(forest):
    """Map static uid -> tuple of loops from outermost to innermost."""
    program = forest.program
    chains = {}
    for inst in program.static_instructions:
        loop = forest.innermost_at(inst.block.function.name,
                                   inst.block.label)
        chain = []
        while loop is not None:
            chain.append(loop)
            loop = loop.parent
        chains[inst.uid] = tuple(reversed(chain))
    return chains


def loop_intervals(tdg, forest=None):
    """Map loop key -> list of [start, end) trace-index intervals, one
    per dynamic invocation of the loop."""
    from repro.isa.opcodes import Opcode

    if forest is None:
        forest = tdg.loop_tree
    chains = _loop_chains(forest)
    intervals = {loop.key: [] for loop in forest}
    stack = []   # entries: [loop, start_index, call_depth]
    call_depth = 0
    trace = tdg.trace.instructions

    def close(entry, end):
        loop, start, _depth = entry
        if end > start:
            intervals[loop.key].append((start, end))

    for index, dyn in enumerate(trace):
        opcode = dyn.opcode
        if opcode is Opcode.RET:
            # Leaving the callee: close its loops before popping depth.
            while stack and stack[-1][2] == call_depth:
                close(stack.pop(), index)
            call_depth -= 1
            continue
        chain = chains.get(dyn.uid, ())
        chain_set = set(chain)
        # Close loops we are no longer inside (same call depth only).
        while stack and stack[-1][2] == call_depth \
                and stack[-1][0] not in chain_set:
            close(stack.pop(), index)
        # Open newly-entered loops, outermost first.
        on_stack = {entry[0] for entry in stack}
        for loop in chain:
            if loop not in on_stack:
                stack.append([loop, index, call_depth])
                on_stack.add(loop)
        if opcode is Opcode.CALL:
            call_depth += 1
    end = len(trace)
    while stack:
        close(stack.pop(), end)
    return intervals


def attribute_baseline(commit_times, intervals):
    """Baseline core cycles attributed to each interval list.

    *commit_times* is the per-instruction commit-time list from a
    full-trace engine run with ``collect_commit_times=True``.

    Returns a dict mapping each key of *intervals* to its summed
    cycles.
    """
    per_key = {}
    for key, spans in intervals.items():
        cycles = 0
        for start, end in spans:
            t_end = commit_times[end - 1] if end > 0 else 0
            t_start = commit_times[start - 1] if start > 0 else 0
            cycles += t_end - t_start
        per_key[key] = cycles
    return per_key

