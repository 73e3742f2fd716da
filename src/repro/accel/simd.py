"""Short-vector SIMD model (loop auto-vectorization).

Analyzer (paper section 3.2, "SIMD TDG"):

- inner loops only, with inter-iteration memory/data dependence checks
  from :mod:`repro.analysis.memdep` (inductions and reductions allowed);
- if-conversion profitability: reject if the if-converted body exceeds
  twice the observed dynamic instructions per iteration;
- needs at least one full vector of iterations.

Transformer: buffers ``vector_len`` iterations; the first iteration
becomes the vectorized version; not-taken-path instructions and
mask/predicate (vblend) instructions are inserted; non-contiguous
memory operations are scalar-expanded (no scatter/gather hardware);
memory latency is remapped onto the vectorized iteration (worst of the
group); remaining iterations are elided.  Leftover iterations below the
vector length stay scalar.
"""

import math

from repro.isa.opcodes import (
    Opcode, is_compute, vector_opcode_for,
)
from repro.accel.base import BSAModel, remap

#: Memory-level severity order for remapping the group's worst latency.
_LEVEL_RANK = {None: 0, "l1": 1, "l2": 2, "dram": 3}

#: If-converted body may be at most this factor of the dynamic
#: instructions per iteration (paper: "more than twice the original").
_IF_CONVERT_LIMIT = 2.0


class SIMDModel(BSAModel):
    """Auto-vectorizing SIMD BSA."""

    name = "simd"
    entry_overhead = 0
    power_gates_core = False

    def find_candidates(self, ctx):
        plans = {}
        for loop in ctx.forest:
            if not loop.is_inner:
                continue
            profile = ctx.path_profiles.get(loop.key)
            if profile is None or profile.iterations < 8:
                continue
            dep = ctx.dep_info(loop)
            if not dep.vectorizable:
                continue
            union_size = sum(
                1 for inst in loop.instructions()
                if inst.opcode not in (Opcode.BR, Opcode.JMP)
            )
            expected = profile.insts_per_iteration
            if expected and union_size > _IF_CONVERT_LIMIT * expected:
                continue
            if profile.average_trip_count < 4:
                continue
            plans[loop.key] = {
                "loop": loop,
                "dep": dep,
                "profile": profile,
            }
        return plans

    def estimate_speedup(self, ctx, plan, core_config):
        dep = plan["dep"]
        vl = core_config.vector_len
        contiguous = dep.contiguous_fraction()
        # Masking / scalar-expansion discount from the loop's control.
        blocks = len(plan["loop"].blocks)
        control_discount = 1.0 / (1.0 + 0.25 * max(0, blocks - 1))
        return max(1.0, (1.0 + (vl - 1) * contiguous * 0.8)
                   * control_discount)

    # ------------------------------------------------------------------
    def transform_interval(self, ctx, plan, interval, vector_len,
                           seq_alloc):
        loop = plan["loop"]
        dep = plan["dep"]
        trace = ctx.tdg.trace.instructions
        spans = ctx.spans_of(loop, interval)
        loop_uids = {inst.uid for inst in loop.instructions()}
        latch_uids = {
            inst.uid for inst in loop.instructions()
            if inst.opcode is Opcode.BR and inst.target == loop.header
        }

        # If-conversion executes every path: static body ops with no
        # instance in a group are emitted as masked (pad) vector ops.
        body_uids = {
            inst.uid for inst in loop.instructions()
            if inst.opcode not in (Opcode.BR, Opcode.JMP)
        }

        stream = []
        seq_map = {}
        reduction_tail = {}   # reduction uid -> last vector seq

        index = 0
        while index < len(spans):
            group = spans[index:index + vector_len]
            if len(group) < vector_len:
                # Leftover iterations stay scalar, deps remapped.
                for span_start, span_end in group:
                    for i in range(span_start, span_end):
                        dyn = trace[i]
                        stream.append(remap(dyn, seq_map))
                break
            self._vectorize_group(
                trace, group, loop_uids, latch_uids, dep, vector_len,
                stream, seq_map, seq_alloc, reduction_tail, body_uids,
            )
            index += vector_len

        # Horizontal reductions after the loop.
        steps = max(1, int(math.log2(vector_len)))
        for uid, tail_seq in reduction_tail.items():
            static = ctx.tdg.program.instruction(uid)
            prev = tail_seq
            for _ in range(steps):
                seq = seq_alloc.next()
                stream.append(trace[0].clone(
                    seq=seq, static=static, opcode=static.opcode,
                    src_deps=(prev,), mem_dep=None, mem_addr=None,
                    mem_lat=0, mem_level=None, taken=None,
                    mispredicted=False, icache_lat=0,
                    vector_width=1, extra_deps=(), lat_override=None,
                ))
                prev = seq
        return stream

    # ------------------------------------------------------------------
    def _vectorize_group(self, trace, group, loop_uids, latch_uids, dep,
                         vector_len, stream, seq_map, seq_alloc,
                         reduction_tail, body_uids):
        # Gather instances per static uid across the group.
        instances = {}
        order = []
        for span_start, span_end in group:
            for i in range(span_start, span_end):
                dyn = trace[i]
                uid = dyn.uid
                if uid is None or uid not in loop_uids:
                    # Stray (callee) instruction: keep scalar.
                    stream.append(remap(dyn, seq_map))
                    continue
                if uid not in instances:
                    instances[uid] = []
                    order.append(uid)
                instances[uid].append(dyn)
        # Emit in static program order for determinism.
        order.sort(key=lambda u: (instances[u][0].static.block.index,
                                  instances[u][0].static.index))

        def map_deps(dyn, new_seq):
            deps = []
            for d in dyn.src_deps:
                mapped = seq_map.get(d, d)
                if mapped != new_seq:
                    deps.append(mapped)
            return tuple(deps)

        for uid in order:
            group_insts = instances[uid]
            rep = group_insts[0]
            static = rep.static
            opcode = rep.opcode
            new_seq = seq_alloc.next()

            if uid in latch_uids:
                # One back-branch per vector group.
                last = group_insts[-1]
                inst = last.clone(
                    seq=new_seq, src_deps=map_deps(last, new_seq))
                stream.append(inst)
            elif opcode is Opcode.BR:
                # If-converted: branch becomes a mask-merge (vblend).
                inst = rep.clone(
                    seq=new_seq, opcode=Opcode.VBLEND, taken=None,
                    mispredicted=False, vector_width=vector_len,
                    src_deps=map_deps(rep, new_seq))
                stream.append(inst)
                if self.detailed:
                    # Reference model: separate mask-maintenance op.
                    stream.append(inst.clone(seq=seq_alloc.next(),
                                             src_deps=(new_seq,)))
            elif uid in dep.induction_uids:
                # One induction update per group (stride folded).
                last = group_insts[-1]
                inst = last.clone(
                    seq=new_seq, src_deps=map_deps(last, new_seq))
                stream.append(inst)
            elif rep.mem_addr is not None:
                self._vectorize_memory(
                    uid, group_insts, dep, vector_len, stream,
                    seq_map, seq_alloc, new_seq, map_deps)
                continue   # seq_map handled inside
            elif uid in dep.reduction_uids and static is not None \
                    and static.opcode is not Opcode.MOV:
                vop = vector_opcode_for(opcode) or opcode
                inst = rep.clone(
                    seq=new_seq, opcode=vop, vector_width=vector_len,
                    src_deps=map_deps(rep, new_seq))
                stream.append(inst)
                reduction_tail[uid] = new_seq
            elif is_compute(opcode) or opcode is Opcode.MOV:
                vop = vector_opcode_for(opcode)
                if vop is not None or opcode in (Opcode.MOV, Opcode.LI):
                    inst = rep.clone(
                        seq=new_seq, opcode=vop or opcode,
                        vector_width=vector_len,
                        src_deps=map_deps(rep, new_seq))
                    stream.append(inst)
                else:
                    # No vector twin (div/sqrt/...): scalar expansion.
                    prev_seq = None
                    for lane, inst in enumerate(group_insts):
                        lane_seq = new_seq if lane == 0 \
                            else seq_alloc.next()
                        clone = inst.clone(
                            seq=lane_seq,
                            src_deps=map_deps(inst, lane_seq))
                        stream.append(clone)
                        prev_seq = lane_seq
                    for inst in group_insts:
                        seq_map[inst.seq] = prev_seq
                    continue
            else:
                # jmp / other control: once per group.
                inst = rep.clone(seq=new_seq,
                                 src_deps=map_deps(rep, new_seq))
                stream.append(inst)

            for dyn in group_insts:
                seq_map[dyn.seq] = new_seq

        # Masking penalty: body ops from not-taken paths still occupy
        # vector lanes after if-conversion (Table 2: "masking/
        # predicated inst penalty").  One masked op per absent static.
        template = None
        for span_start, span_end in group:
            if span_end > span_start:
                template = trace[span_start]
                break
        if template is not None:
            for uid in body_uids:
                if uid in instances:
                    continue
                stream.append(template.clone(
                    seq=seq_alloc.next(), opcode=Opcode.VBLEND,
                    src_deps=(), mem_dep=None, mem_addr=None,
                    mem_lat=0, mem_level=None, taken=None,
                    mispredicted=False, icache_lat=0, extra_deps=(),
                    lat_override=1, vector_width=vector_len))

    def _vectorize_memory(self, uid, group_insts, dep, vector_len,
                          stream, seq_map, seq_alloc, new_seq,
                          map_deps):
        rep = group_insts[0]
        stride = dep.stride_of(uid)
        if stride == 1:
            # Contiguous: a single vector load/store with the group's
            # worst latency remapped on (paper: "memory latency
            # information is re-mapped onto the vectorized iteration").
            # The detailed reference model charges an extra cycle for
            # the wide access (bank conflicts); the fast model is
            # optimistic, as the paper's SIMD model deliberately is.
            worst = max(group_insts, key=lambda d: d.mem_lat)
            vop = Opcode.VLD if rep.static.is_load else Opcode.VST
            extra = 1 if self.detailed else 0
            inst = rep.clone(
                seq=new_seq, opcode=vop, vector_width=vector_len,
                mem_lat=worst.mem_lat + extra, mem_level=worst.mem_level,
                src_deps=map_deps(rep, new_seq),
                mem_dep=seq_map.get(rep.mem_dep, rep.mem_dep))
            stream.append(inst)
            for dyn in group_insts:
                seq_map[dyn.seq] = new_seq
            return
        # Non-contiguous: scalar expansion plus a pack/unpack op.
        lane_seqs = []
        for lane, dyn in enumerate(group_insts):
            lane_seq = new_seq if lane == 0 else seq_alloc.next()
            stream.append(dyn.clone(
                seq=lane_seq, src_deps=map_deps(dyn, lane_seq),
                mem_dep=seq_map.get(dyn.mem_dep, dyn.mem_dep)))
            lane_seqs.append(lane_seq)
        pack_seq = seq_alloc.next()
        stream.append(rep.clone(
            seq=pack_seq, opcode=Opcode.VBLEND, mem_addr=None,
            mem_lat=0, mem_level=None, vector_width=vector_len,
            src_deps=tuple(lane_seqs), mem_dep=None))
        target = pack_seq if rep.static.is_load else lane_seqs[-1]
        for dyn in group_insts:
            seq_map[dyn.seq] = target
