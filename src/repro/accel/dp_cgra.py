"""Data-Parallel CGRA model (DySER/Morphosys-like, paper section 3.2).

Analyzer: inner loops whose access/execute slice is profitable (more
offloaded computation than communication instructions).  Vectorizable
loops also apply the SIMD grouping first, and the computation is
"cloned" across lanes until resources fill (modeled as vector-width on
the CGRA ops).

Transformer: the computation subgraph moves onto the CGRA (``accel=
"dp_cgra"`` instructions with routing delay on their dataflow edges);
the core retains memory access, loop control and the communication
instructions (``send``/``recv``).  Offloaded computation instances are
pipelined: one edge for the pipeline depth between instances and one
for in-order completion.  A small configuration cache inserts a
``cfg`` instruction on misses.
"""

from repro.isa.opcodes import Opcode
from repro.accel.base import (
    BSAModel, emit_vector_access, gather_instances, iteration_groups,
    map_deps,
)
from repro.analysis.slicing import ROLE_EXECUTE, ROLE_CONTROL
from repro.tdg.engine import AccelResources

#: CGRA functional units (paper: "Its design point has 64 FUs").
CGRA_FUS = 64

#: Routing/scheduling latency added on CGRA dataflow edges (the paper
#: estimates FU-to-FU latency absent a spatial scheduler, sec. 2.7).
ROUTE_DELAY = 1

#: Pipeline depth between computation instances.
PIPELINE_DEPTH = 1

#: Configuration-cache entries (loops).
CONFIG_CACHE_ENTRIES = 4

#: Cycles to load a configuration on a config-cache miss.
CONFIG_LATENCY = 32

# Module globals for the group loop (an ``Opcode.X`` read costs ~10x).
_BR, _CFG, _SEND, _RECV = Opcode.BR, Opcode.CFG, Opcode.SEND, Opcode.RECV


class DPCGRAModel(BSAModel):
    """Data-parallel CGRA in access-execute style."""

    name = "dp_cgra"
    power_gates_core = False

    @property
    def route_delay(self):
        """Fast mode estimates FU-to-FU latency (paper sec. 2.7 notes
        the missing spatial scheduler); the detailed reference charges
        the full switch traversal."""
        return 2 if self.detailed else ROUTE_DELAY

    @property
    def config_latency(self):
        return 2 * CONFIG_LATENCY if self.detailed else CONFIG_LATENCY

    def accel_resources(self, core_config):
        return AccelResources({self.name: CGRA_FUS})

    def find_candidates(self, ctx):
        plans = {}
        for loop in ctx.forest:
            if not loop.is_inner:
                continue
            profile = ctx.path_profiles.get(loop.key)
            if profile is None or profile.iterations < 8:
                continue
            if profile.average_trip_count < 4:
                continue
            slice_info = ctx.slice_info(loop)
            if not slice_info.profitable:
                continue
            if slice_info.offloaded_count > CGRA_FUS:
                continue
            dep = ctx.dep_info(loop)
            plans[loop.key] = {
                "loop": loop,
                "slice": slice_info,
                "dep": dep,
                "profile": profile,
                "config_cache": [],   # shared LRU across invocations
            }
        return plans

    def estimate_speedup(self, ctx, plan, core_config):
        slice_info = plan["slice"]
        dep = plan["dep"]
        total = max(1, len(slice_info.roles))
        offload_fraction = slice_info.offloaded_count / total
        estimate = 1.0 + offload_fraction
        if dep.vectorizable:
            estimate *= 1.0 + 0.4 * (core_config.vector_len - 1) \
                * dep.contiguous_fraction()
        # Predicated execution wastes fabric on control-dense loops.
        branch_fraction = plan["profile"].branch_fraction
        estimate /= 1.0 + 3.0 * branch_fraction
        return max(0.8, estimate)

    # ------------------------------------------------------------------
    def transform_interval(self, ctx, plan, interval, vector_len,
                           seq_alloc, out):
        loop = plan["loop"]
        dep = plan["dep"]
        slice_info = plan["slice"]
        trace = ctx.tdg.trace.instructions
        spans = ctx.spans_of(loop, interval)
        vectorizable = dep.vectorizable
        group_len = vector_len if vectorizable else 1
        # Cloning: replicate the compute region across lanes while it
        # fits the fabric.
        offloaded = max(1, slice_info.offloaded_count)
        clone_limit = max(1, CGRA_FUS // offloaded)
        lanes = min(group_len, clone_limit) if vectorizable else 1

        seq_map = {}
        self._maybe_configure(plan, loop, out, seq_alloc, trace, interval)

        prev_first_cgra = None
        prev_last_cgra = None
        for group in iteration_groups(trace, spans, group_len, seq_map,
                                      out):
            first_cgra, last_cgra = self._emit_group(
                trace, group, loop, slice_info, dep, lanes, out,
                seq_map, seq_alloc, prev_first_cgra, prev_last_cgra)
            if first_cgra is not None:
                prev_first_cgra = first_cgra
                prev_last_cgra = last_cgra

    def _maybe_configure(self, plan, loop, out, seq_alloc, trace,
                         interval):
        cache = plan["config_cache"]
        if loop.key in cache:
            cache.remove(loop.key)
            cache.append(loop.key)
            return
        cache.append(loop.key)
        if len(cache) > CONFIG_CACHE_ENTRIES:
            cache.pop(0)
        out.synthesize(seq_alloc.next(), trace[interval[0]].static, _CFG,
                       lat_override=self.config_latency)

    def _emit_group(self, trace, group, loop, slice_info, dep, lanes,
                    out, seq_map, seq_alloc, prev_first, prev_last):
        """Emit one (possibly vector) group of iterations.

        Memory/control stay on the core (vectorized when profitable);
        compute goes to the CGRA with routing-delayed dataflow edges.
        Returns the group's first CGRA seq and last CGRA ``(row,
        seq)`` (None, None without CGRA work); *prev_first*/*prev_last*
        are the previous such group's.
        """
        instances, order = gather_instances(trace, group, loop.uids,
                                            seq_map, out)
        vector_mode = lanes > 1
        first_cgra = None
        last_cgra = None
        cgra_seqs = set()

        for uid in order:
            group_insts = instances[uid]
            rep = group_insts[0]
            role = slice_info.role_of(uid)
            new_seq = seq_alloc.next()

            if role == ROLE_EXECUTE:
                # CGRA op (cloned across lanes when vectorized).
                deps = []
                extra = []
                needs_send = False
                for d in rep.src_deps:
                    mapped = seq_map.get(d, d)
                    if mapped in cgra_seqs:
                        extra.append((mapped, self.route_delay))
                    else:
                        needs_send = True
                        deps.append(mapped)
                if needs_send:
                    # Core -> CGRA operand transfer.
                    send_seq = seq_alloc.next()
                    out.synthesize(send_seq, rep.static, _SEND,
                                   src_deps=deps, lat_override=1)
                    deps = [send_seq]
                if prev_first is not None and first_cgra is None:
                    extra.append((prev_first, PIPELINE_DEPTH))
                row = out.emit(
                    rep, seq=new_seq, accel=self.name,
                    src_deps=deps, extra_deps=extra,
                    taken=None, mispredicted=False, icache_lat=0,
                    vector_width=lanes if vector_mode else 1)
                cgra_seqs.add(new_seq)
                if first_cgra is None:
                    first_cgra = new_seq
                last_cgra = (row, new_seq)
            elif rep.mem_addr is not None:
                self._emit_memory(uid, group_insts, dep, vector_mode,
                                  out, seq_map, seq_alloc, new_seq)
                continue
            elif role == ROLE_CONTROL or uid in dep.induction_uids \
                    or rep.opcode is _BR:
                last = group_insts[-1]
                out.emit(last, seq=new_seq,
                         src_deps=map_deps(last, seq_map))
            else:
                # Core-side scalar (address computation etc.): once per
                # group when vectorized (index math is shared).
                out.emit(rep, seq=new_seq, src_deps=map_deps(rep, seq_map),
                         vector_width=1)
            for dyn in group_insts:
                seq_map[dyn.seq] = new_seq

        # CGRA -> core transfer for values read outside (recv); one per
        # group for the out-communication set.
        for uid in slice_info.comm_out_uids:
            reps = instances.get(uid)
            if not reps:
                continue
            mapped = seq_map.get(reps[0].seq)
            if mapped is None:
                continue
            recv_seq = seq_alloc.next()
            out.synthesize(recv_seq, reps[0].static, _RECV,
                           src_deps=(mapped,), lat_override=1)
            for dyn in instances[uid]:
                seq_map[dyn.seq] = recv_seq
        if prev_last is not None and last_cgra is not None:
            # In-order completion between computation instances.
            out.add_edge(last_cgra[0], prev_last[1], 0)
        return first_cgra, last_cgra

    @staticmethod
    def _emit_memory(uid, group_insts, dep, vector_mode, out, seq_map,
                     seq_alloc, new_seq):
        if vector_mode and dep.stride_of(uid) == 1:
            emit_vector_access(group_insts, new_seq, len(group_insts), 0,
                               seq_map, out)
            return
        for lane, dyn in enumerate(group_insts):
            lane_seq = new_seq if lane == 0 else seq_alloc.next()
            out.emit(dyn, seq=lane_seq, src_deps=map_deps(dyn, seq_map),
                     mem_dep=seq_map.get(dyn.mem_dep, dyn.mem_dep))
            seq_map[dyn.seq] = lane_seq
