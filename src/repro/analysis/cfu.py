"""Compound-functional-unit (CFU) scheduling for NS-DF and Trace-P.

The paper schedules instructions onto CFUs with mathematical
optimization [SEED]; it also notes its BERET model approximates with
"size-based compound functional units".  We implement a greedy
chain-packing scheduler over the loop body's dataflow graph: dependent
single-use chains are fused into one compound op up to a size limit,
which is exactly the size-based approximation the paper validates.
"""

import functools

from repro.isa.opcodes import Opcode, is_compute


class CFUSchedule:
    """Assignment of static instructions to compound units."""

    def __init__(self, loop, max_cfu_size, cross_control):
        self.loop = loop
        self.max_cfu_size = max_cfu_size
        self.cross_control = cross_control
        self.cfus = []          # list of lists of static uids
        self.cfu_of = {}        # uid -> cfu index

    @property
    def key(self):
        return self.loop.key

    @functools.cached_property
    def slots(self):
        """uid -> (cfu index, position in its chain, chain length)."""
        return {uid: (index, self.cfus[index].index(uid),
                      len(self.cfus[index]))
                for uid, index in self.cfu_of.items()}

    @property
    def compound_count(self):
        return len(self.cfus)

    @property
    def scheduled_ops(self):
        return len(self.cfu_of)

    @property
    def average_fusion(self):
        if not self.cfus:
            return 0.0
        return self.scheduled_ops / len(self.cfus)

    def fits(self, budget):
        """Does the configuration fit the hardware's static-instruction
        budget?"""
        return self.compound_count <= budget

    def __repr__(self):
        return (f"<CFUSchedule {self.key}: {self.compound_count} CFUs, "
                f"avg fusion {self.average_fusion:.1f}>")


def _static_dataflow(loop):
    """Approximate def-use graph over the loop's static instructions.

    Within each block we track last-writer per register; cross-block
    uses are not linked (conservative: chains never cross block
    boundaries unless *cross_control* relinks them).
    """
    edges = {}        # uid -> list of consumer uids
    uses = {}         # uid -> number of consumers
    per_block_chains = []
    for label in sorted(loop.blocks):
        block = loop.function.block(label)
        last_writer = {}
        for inst in block:
            for reg in inst.srcs:
                producer = last_writer.get(reg)
                if producer is not None:
                    edges.setdefault(producer, []).append(inst.uid)
                    uses[producer] = uses.get(producer, 0) + 1
            if inst.dest is not None:
                last_writer[inst.dest] = inst.uid
        per_block_chains.append(label)
    return edges, uses


def schedule_cfus(loop, max_cfu_size=4, cross_control=False,
                  eligible_uids=None):
    """Greedily pack the loop's compute ops into CFUs.

    *cross_control* allows compound ops to span basic blocks (Trace-P's
    advantage over NS-DF, paper Table 2 / section 3.1).
    *eligible_uids* restricts scheduling (e.g. hot-path-only for
    Trace-P).
    """
    schedule = CFUSchedule(loop, max_cfu_size, cross_control)
    edges, uses = _static_dataflow(loop)

    block_of = {}
    order = []
    for label in sorted(loop.blocks):
        for inst in loop.function.block(label):
            if eligible_uids is not None and inst.uid not in eligible_uids:
                continue
            if is_compute(inst.opcode) or inst.opcode is Opcode.MOV:
                order.append(inst.uid)
                block_of[inst.uid] = label

    assigned = set()
    for uid in order:
        if uid in assigned:
            continue
        # Grow a chain through single-use dataflow successors.
        chain = [uid]
        assigned.add(uid)
        current = uid
        while len(chain) < max_cfu_size:
            successors = [
                s for s in edges.get(current, ())
                if s not in assigned and s in block_of
            ]
            # Follow only single-use links (a CFU has one internal bus).
            if len(successors) != 1 or uses.get(current, 0) != 1:
                break
            nxt = successors[0]
            if not cross_control and block_of[nxt] != block_of[current]:
                break
            chain.append(nxt)
            assigned.add(nxt)
            current = nxt
        index = len(schedule.cfus)
        schedule.cfus.append(chain)
        for member in chain:
            schedule.cfu_of[member] = index
    return schedule
