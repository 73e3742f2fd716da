"""Inter-iteration dependence analysis (vectorization legality).

The paper's SIMD analysis "optimistically analyzes the TDG's memory and
data dependences": loop-carried memory dependences are detected by
tracking per-iteration memory addresses in consecutive iterations, and
loop-carried register dependences are allowed only when they are
inductions or reductions.  Memory strides are classified per static
access so the transform knows which operations need scalar expansion
(non-contiguous) versus vector loads/stores.
"""

from repro.isa.opcodes import Opcode

#: Opcodes acceptable as reduction update operations.
_REDUCTION_OPS = {
    Opcode.ADD, Opcode.FADD, Opcode.FMUL, Opcode.MUL,
    Opcode.MIN, Opcode.MAX, Opcode.FMIN, Opcode.FMAX,
    Opcode.AND, Opcode.OR, Opcode.XOR,
}

#: Iteration distance window for memory-conflict checking (one vector
#: group, conservatively doubled).
_MEM_DEP_WINDOW = 8


class LoopDepInfo:
    """Dependence facts about one loop, per the SIMD analysis."""

    def __init__(self, loop):
        self.loop = loop
        self.carried_mem_dep = False
        self.carried_data_dep = False
        self.reduction_uids = set()
        self.induction_uids = set()
        self.load_strides = {}      # static uid -> stride or None
        self.store_strides = {}
        self.iterations_seen = 0

    @property
    def key(self):
        return self.loop.key

    @property
    def vectorizable(self):
        return not (self.carried_mem_dep or self.carried_data_dep)

    def stride_of(self, uid):
        if uid in self.load_strides:
            return self.load_strides[uid]
        return self.store_strides.get(uid)

    def contiguous_fraction(self):
        """Fraction of static memory ops with unit stride."""
        strides = list(self.load_strides.values()) \
            + list(self.store_strides.values())
        if not strides:
            return 1.0
        return sum(1 for s in strides if s == 1) / len(strides)

    def __repr__(self):
        return (f"<LoopDepInfo {self.key} "
                f"vectorizable={self.vectorizable}>")


def _is_induction(static):
    """``add i, i, imm`` (or sub) updating its own source."""
    return (static.opcode in (Opcode.ADD, Opcode.SUB)
            and static.imm is not None
            and static.dest is not None
            and static.srcs and static.srcs[0] == static.dest)


def _is_reduction(producer_static, consumer_static):
    """A self-accumulating op consumed by itself across iterations
    (``acc = acc op x``), possibly via a mov into the accumulator."""
    if producer_static is not consumer_static:
        # Builder-emitted form: op t, acc, x ; mov acc, t.  Accept the
        # op->mov and mov->op halves of that idiom only when the mov
        # actually forwards the op's result (otherwise an arbitrary
        # recurrence like state = state*3+1 would slip through).
        if consumer_static.opcode is Opcode.MOV \
                and producer_static.opcode in _REDUCTION_OPS \
                and consumer_static.srcs \
                and consumer_static.srcs[0] == producer_static.dest:
            return True
        if producer_static.opcode is Opcode.MOV \
                and consumer_static.opcode in _REDUCTION_OPS \
                and producer_static.srcs \
                and producer_static.srcs[0] == consumer_static.dest:
            return True
        return False
    return (consumer_static.opcode in _REDUCTION_OPS
            and consumer_static.dest is not None
            and consumer_static.dest in consumer_static.srcs)


def analyze_loop_dependences(trace, loop, invocations,
                             max_iterations=512):
    """Build :class:`LoopDepInfo` for *loop* from the first
    *max_iterations* of its *invocations*, each a list of iteration
    ``[start, end)`` spans into *trace*.

    Analysis is trace-based and optimistic, as in the paper ("we use
    dynamic information from the trace to estimate these features").
    """
    info = LoopDepInfo(loop)
    loop_uids = loop.uids

    prev_addr = {}     # static uid -> last address (stride tracking)
    stride_votes = {}  # static uid -> {stride: count}

    for spans in invocations:
        # Iteration ordinals count within one invocation.
        seq_iter = {}
        store_addrs = {}   # addr -> iteration of last store
        access_addrs = {}  # addr -> iteration of last access
        spans = spans[:max_iterations - info.iterations_seen]
        info.iterations_seen += len(spans)
        for ordinal, (span_start, span_end) in enumerate(spans):
            for index in range(span_start, span_end):
                dyn = trace[index]
                static = dyn.static
                if static is None or static.uid not in loop_uids:
                    continue
                seq_iter[dyn.seq] = ordinal
                # ---- register loop-carried deps -------------------
                for dep in dyn.src_deps:
                    dep_iter = seq_iter.get(dep)
                    if dep_iter is None or dep_iter == ordinal:
                        continue
                    producer = trace[dep].static
                    if producer is None:
                        continue
                    if _is_induction(static) or _is_induction(producer):
                        info.induction_uids.add(static.uid)
                        continue
                    if _is_reduction(producer, static):
                        info.reduction_uids.add(static.uid)
                        continue
                    info.carried_data_dep = True
                # ---- memory loop-carried deps ----------------------
                if dyn.mem_addr is not None:
                    addr = dyn.mem_addr
                    uid = static.uid
                    if uid in prev_addr:
                        stride = addr - prev_addr[uid]
                        votes = stride_votes.setdefault(uid, {})
                        votes[stride] = votes.get(stride, 0) + 1
                    prev_addr[uid] = addr
                    if static.is_store:
                        other = access_addrs.get(addr)
                        if other is not None and other != ordinal \
                                and ordinal - other < _MEM_DEP_WINDOW:
                            info.carried_mem_dep = True
                        store_addrs[addr] = ordinal
                    else:
                        last_store = store_addrs.get(addr)
                        if last_store is not None \
                                and last_store != ordinal \
                                and ordinal - last_store \
                                < _MEM_DEP_WINDOW:
                            info.carried_mem_dep = True
                    access_addrs[addr] = ordinal
        if info.iterations_seen >= max_iterations:
            break

    # Majority-vote strides.
    for inst in loop.instructions():
        if not inst.is_memory:
            continue
        votes = stride_votes.get(inst.uid)
        if votes:
            stride, count = max(votes.items(), key=lambda kv: kv[1])
            total = sum(votes.values())
            resolved = stride if count / total >= 0.9 else None
        else:
            resolved = None
        if inst.is_load:
            info.load_strides[inst.uid] = resolved
        else:
            info.store_strides[inst.uid] = resolved
    return info
