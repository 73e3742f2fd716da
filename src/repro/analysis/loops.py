"""Natural-loop detection and the loop-nesting forest.

The loop forest is the backbone of region selection: BSA analyses walk
it to find inner loops (SIMD, DP-CGRA, Trace-P) or whole nests (NS-DF),
and the Amdahl-tree scheduler (paper Fig. 9) performs its bottom-up
composition over it.
"""

from repro.analysis.cfg import back_edges


class Loop:
    """One natural loop.

    Attributes
    ----------
    function: owning Function
    header: header block label
    blocks: set of member block labels
    uids: frozenset of the member static instructions' uids
    parent / children: nesting links
    """

    def __init__(self, function, header, blocks):
        self.function = function
        self.header = header
        self.blocks = set(blocks)
        self.uids = frozenset(inst.uid for inst in self.instructions())
        self.parent = None
        self.children = []

    @property
    def key(self):
        """Stable identifier: (function name, header label)."""
        return (self.function.name, self.header)

    @property
    def depth(self):
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def is_inner(self):
        return not self.children

    def instructions(self):
        """All static instructions in the loop (including children)."""
        for label in sorted(self.blocks):
            yield from self.function.block(label)

    def static_size(self):
        return sum(len(self.function.block(b)) for b in self.blocks)

    def __repr__(self):
        return (f"<Loop {self.function.name}/{self.header} "
                f"depth={self.depth} blocks={len(self.blocks)}>")


def _natural_loop(function, latch, header):
    """Blocks of the natural loop of back edge latch->header."""
    preds = function.predecessors()
    blocks = {header, latch}
    stack = [latch]
    while stack:
        label = stack.pop()
        if label == header:
            continue
        for pred in preds.get(label, ()):
            if pred not in blocks:
                blocks.add(pred)
                stack.append(pred)
    return blocks


def build_loop_forest(program):
    """Return a LoopForest over all functions of *program*."""
    loops = []
    for function in program.functions.values():
        by_header = {}
        for latch, header in back_edges(function):
            blocks = _natural_loop(function, latch, header)
            if header in by_header:
                by_header[header] |= blocks
            else:
                by_header[header] = blocks
        for header, blocks in by_header.items():
            loops.append(Loop(function, header, blocks))
    # Nesting: parent = smallest strictly-enclosing loop.
    for loop in loops:
        best = None
        for other in loops:
            if other is loop or other.function is not loop.function:
                continue
            if loop.blocks < other.blocks:
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
    for loop in loops:
        if loop.parent is not None:
            loop.parent.children.append(loop)
    return LoopForest(program, loops)


class LoopForest:
    """All loops of a program with nesting structure and lookups."""

    def __init__(self, program, loops):
        self.program = program
        self.loops = loops
        self._by_key = {loop.key: loop for loop in loops}
        # Innermost loop per (function, block label).
        self._innermost = {}
        for loop in sorted(loops, key=lambda l: len(l.blocks),
                           reverse=True):
            for label in loop.blocks:
                self._innermost[(loop.function.name, label)] = loop

    @property
    def roots(self):
        return [loop for loop in self.loops if loop.parent is None]

    def loop(self, key):
        return self._by_key[key]

    def innermost_at(self, function_name, label):
        """The innermost loop containing block *label*, or None."""
        return self._innermost.get((function_name, label))

    def __iter__(self):
        return iter(self.loops)

    def __len__(self):
        return len(self.loops)

    def __repr__(self):
        return f"<LoopForest {len(self.loops)} loops>"
