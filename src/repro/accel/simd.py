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

from repro.isa.opcodes import Opcode, vector_opcode_for
from repro.accel.base import (
    BSAModel, emit_vector_access, gather_instances, iteration_groups,
    map_deps,
)

#: If-converted body may be at most this factor of the dynamic
#: instructions per iteration (paper: "more than twice the original").
_IF_CONVERT_LIMIT = 2.0

# Module globals for the group loop (an ``Opcode.X`` read costs ~10x).
_BR, _JMP, _MOV, _LI, _VBLEND = (
    Opcode.BR, Opcode.JMP, Opcode.MOV, Opcode.LI, Opcode.VBLEND)


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
                           seq_alloc, out):
        loop = plan["loop"]
        dep = plan["dep"]
        trace = ctx.tdg.trace.instructions
        spans = ctx.spans_of(loop, interval)
        latch_uids = {
            inst.uid for inst in loop.instructions()
            if inst.opcode is _BR and inst.target == loop.header
        }

        # If-conversion executes every path: static body ops with no
        # instance in a group are emitted as masked (pad) vector ops.
        body_uids = {
            inst.uid for inst in loop.instructions()
            if inst.opcode is not _BR and inst.opcode is not _JMP
        }

        seq_map = {}
        reduction_tail = {}   # reduction uid -> last vector seq

        for group in iteration_groups(trace, spans, vector_len, seq_map,
                                      out):
            self._vectorize_group(
                trace, group, loop.uids, latch_uids, dep, vector_len,
                out, seq_map, seq_alloc, reduction_tail, body_uids,
            )

        # Horizontal reductions after the loop.
        steps = max(1, int(math.log2(vector_len)))
        for uid, tail_seq in reduction_tail.items():
            static = ctx.tdg.program.instruction(uid)
            prev = tail_seq
            for _ in range(steps):
                seq = seq_alloc.next()
                out.synthesize(seq, static, static.opcode, src_deps=(prev,))
                prev = seq

    # ------------------------------------------------------------------
    def _vectorize_group(self, trace, group, loop_uids, latch_uids, dep,
                         vector_len, out, seq_map, seq_alloc,
                         reduction_tail, body_uids):
        instances, order = gather_instances(trace, group, loop_uids,
                                            seq_map, out)
        for uid in order:
            group_insts = instances[uid]
            rep = group_insts[0]
            static = rep.static
            opcode = rep.opcode
            new_seq = seq_alloc.next()

            if uid in latch_uids:
                # One back-branch per vector group.
                last = group_insts[-1]
                out.emit(last, seq=new_seq,
                         src_deps=map_deps(last, seq_map))
            elif opcode is _BR:
                # If-converted: branch becomes a mask-merge (vblend).
                out.emit(rep, seq=new_seq, opcode=_VBLEND, taken=None,
                         mispredicted=False, vector_width=vector_len,
                         src_deps=map_deps(rep, seq_map))
                if self.detailed:
                    # Reference model: separate mask-maintenance op.
                    out.emit(rep, seq=seq_alloc.next(), opcode=_VBLEND,
                             taken=None, mispredicted=False,
                             vector_width=vector_len, src_deps=(new_seq,))
            elif uid in dep.induction_uids:
                # One induction update per group (stride folded).
                last = group_insts[-1]
                out.emit(last, seq=new_seq,
                         src_deps=map_deps(last, seq_map))
            elif rep.mem_addr is not None:
                self._vectorize_memory(
                    uid, group_insts, dep, vector_len, out,
                    seq_map, seq_alloc, new_seq)
                continue   # seq_map handled inside
            elif uid in dep.reduction_uids and static is not None \
                    and static.opcode is not _MOV:
                vop = vector_opcode_for(opcode) or opcode
                out.emit(rep, seq=new_seq, opcode=vop,
                         vector_width=vector_len,
                         src_deps=map_deps(rep, seq_map))
                reduction_tail[uid] = new_seq
            elif opcode.is_compute or opcode is _MOV:
                vop = vector_opcode_for(opcode)
                if vop is not None or opcode is _MOV or opcode is _LI:
                    out.emit(rep, seq=new_seq, opcode=vop or opcode,
                             vector_width=vector_len,
                             src_deps=map_deps(rep, seq_map))
                else:
                    # No vector twin (div/sqrt/...): scalar expansion.
                    prev_seq = None
                    for lane, inst in enumerate(group_insts):
                        lane_seq = new_seq if lane == 0 \
                            else seq_alloc.next()
                        out.emit(inst, seq=lane_seq,
                                 src_deps=map_deps(inst, seq_map))
                        prev_seq = lane_seq
                    for inst in group_insts:
                        seq_map[inst.seq] = prev_seq
                    continue
            else:
                # jmp / other control: once per group.
                out.emit(rep, seq=new_seq,
                         src_deps=map_deps(rep, seq_map))

            for dyn in group_insts:
                seq_map[dyn.seq] = new_seq

        # Masking penalty: body ops from not-taken paths still occupy
        # vector lanes after if-conversion (Table 2: "masking/
        # predicated inst penalty").  One masked op per absent static,
        # attributed to the group's first instruction (spans are never
        # empty).
        pad_static = trace[group[0][0]].static
        for uid in body_uids:
            if uid not in instances:
                out.synthesize(seq_alloc.next(), pad_static, _VBLEND,
                               lat_override=1, vector_width=vector_len)

    def _vectorize_memory(self, uid, group_insts, dep, vector_len,
                          out, seq_map, seq_alloc, new_seq):
        rep = group_insts[0]
        stride = dep.stride_of(uid)
        if stride == 1:
            # Contiguous: a single vector load/store.  The detailed
            # reference model charges an extra cycle for the wide
            # access (bank conflicts); the fast model is optimistic,
            # as the paper's SIMD model deliberately is.
            emit_vector_access(group_insts, new_seq, vector_len,
                               1 if self.detailed else 0, seq_map, out)
            return
        # Non-contiguous: scalar expansion plus a pack/unpack op.
        lane_seqs = []
        for lane, dyn in enumerate(group_insts):
            lane_seq = new_seq if lane == 0 else seq_alloc.next()
            out.emit(dyn, seq=lane_seq, src_deps=map_deps(dyn, seq_map),
                     mem_dep=seq_map.get(dyn.mem_dep, dyn.mem_dep))
            lane_seqs.append(lane_seq)
        pack_seq = seq_alloc.next()
        out.emit(rep, seq=pack_seq, opcode=_VBLEND, mem_addr=None,
                 mem_lat=0, mem_level=None, vector_width=vector_len,
                 src_deps=tuple(lane_seqs), mem_dep=None)
        target = pack_seq if rep.static.is_load else lane_seqs[-1]
        for dyn in group_insts:
            seq_map[dyn.seq] = target
