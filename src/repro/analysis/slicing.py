"""Access/execute slicing for DP-CGRA (the DySER slicing algorithm).

Splits a loop body between the general core (memory access: loads,
stores, address computation, loop control) and the CGRA (the
computation subgraph).  Values crossing the boundary become
communication instructions; the paper's analysis "disregards loops with
more communication instructions than offloaded computation".

The slice is computed from dynamic sample iterations (the TDG carries
the dynamic DFG), the loop's first iterations as the path profiler
recorded them (:attr:`~repro.analysis.pathprof.LoopPathProfile.spans`),
then expressed per static instruction.
"""

from repro.isa.opcodes import Opcode, is_compute

#: Roles a static instruction can take in the slice.
ROLE_ACCESS = "access"      # stays on the core
ROLE_EXECUTE = "execute"    # offloaded to the CGRA
ROLE_CONTROL = "control"    # loop control, stays on the core


class SliceInfo:
    """Access/execute split of one loop body."""

    def __init__(self, loop):
        self.loop = loop
        self.roles = {}          # static uid -> role
        self.comm_in_uids = set()    # core->CGRA live values
        self.comm_out_uids = set()   # CGRA->core live values

    @property
    def key(self):
        return self.loop.key

    @property
    def offloaded_count(self):
        return sum(1 for role in self.roles.values()
                   if role == ROLE_EXECUTE)

    @property
    def comm_count(self):
        return len(self.comm_in_uids) + len(self.comm_out_uids)

    @property
    def profitable(self):
        """More offloaded computation than communication (paper)."""
        return self.offloaded_count > self.comm_count

    def role_of(self, uid):
        return self.roles.get(uid, ROLE_ACCESS)

    def __repr__(self):
        return (f"<SliceInfo {self.key}: {self.offloaded_count} exec, "
                f"{self.comm_count} comm>")


def slice_loop_body(trace, loop, invocations, sample_iterations=4):
    """Compute the access/execute slice for *loop* from the first
    *sample_iterations* of its *invocations*, each a list of iteration
    ``[start, end)`` spans into *trace*.

    Strategy (mirrors the DySER slicing the paper borrows):

    1. memory ops and control stay on the core;
    2. the backward slice of every address operand stays on the core;
    3. remaining compute is offloaded;
    4. values flowing core->CGRA (load results, induction values) and
       CGRA->core (store data, live-outs) are communication.
    """
    info = SliceInfo(loop)

    # Seed roles from static properties.
    for inst in loop.instructions():
        if inst.is_memory:
            info.roles[inst.uid] = ROLE_ACCESS
        elif inst.opcode in (Opcode.BR, Opcode.JMP, Opcode.CALL,
                             Opcode.RET, Opcode.HALT):
            info.roles[inst.uid] = ROLE_CONTROL
        elif is_compute(inst.opcode) or inst.opcode is Opcode.MOV:
            info.roles[inst.uid] = ROLE_EXECUTE
        else:
            info.roles[inst.uid] = ROLE_ACCESS

    # Walk sample iterations to pull address slices back to the core.
    samples = []
    for spans in invocations:
        samples += spans[:sample_iterations - len(samples)]
        if len(samples) >= sample_iterations:
            break

    for span_start, span_end in samples:
        producers = {}    # seq -> dyn inst, within the sample
        address_seqs = set()
        control_seqs = set()
        for index in range(span_start, span_end):
            dyn = trace[index]
            static = dyn.static
            if static is None or static.uid not in loop.uids:
                continue
            producers[dyn.seq] = dyn
            if dyn.mem_addr is not None and dyn.src_deps:
                # First operand of a memory op is the address base.
                address_seqs.add(dyn.src_deps[0])
            if static.opcode is Opcode.BR and dyn.src_deps \
                    and static.target == loop.header:
                # The latch condition's slice stays on the core.
                control_seqs.add(dyn.src_deps[0])
        # Backward closure of address/control slices.
        worklist = list(address_seqs | control_seqs)
        on_core = set(worklist)
        while worklist:
            seq = worklist.pop()
            dyn = producers.get(seq)
            if dyn is None:
                continue
            uid = dyn.static.uid if dyn.static else None
            if uid in loop.uids and info.roles.get(uid) == ROLE_EXECUTE:
                info.roles[uid] = ROLE_ACCESS
            for dep in dyn.src_deps:
                if dep not in on_core:
                    on_core.add(dep)
                    worklist.append(dep)

    # Communication: boundary-crossing values, from one sample.
    if samples:
        span_start, span_end = samples[0]
        dyn_by_seq = {}
        for index in range(span_start, span_end):
            dyn = trace[index]
            if dyn.static is not None and dyn.static.uid in loop.uids:
                dyn_by_seq[dyn.seq] = dyn
        for dyn in dyn_by_seq.values():
            uid = dyn.static.uid
            my_role = info.roles.get(uid, ROLE_ACCESS)
            for dep in dyn.src_deps:
                producer = dyn_by_seq.get(dep)
                if producer is None:
                    # Live-in from outside the iteration.
                    if my_role == ROLE_EXECUTE:
                        info.comm_in_uids.add(uid)
                    continue
                producer_role = info.roles.get(producer.static.uid,
                                               ROLE_ACCESS)
                if producer_role != ROLE_EXECUTE \
                        and my_role == ROLE_EXECUTE:
                    info.comm_in_uids.add(producer.static.uid)
                elif producer_role == ROLE_EXECUTE \
                        and my_role != ROLE_EXECUTE:
                    info.comm_out_uids.add(producer.static.uid)
    return info
