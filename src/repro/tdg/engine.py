"""Incremental windowed TDG timing engine.

Evaluates a stream of dynamic instructions (original or transformed)
against a :class:`~repro.core_model.config.CoreConfig`, applying the
edge rules of the paper's Figure 4:

- fetch / dispatch / commit bandwidth edges (``X_{i-w} -1-> X_i``)
- front-end depth, ROB and issue-queue occupancy edges
- data and memory dependences (``P_j -> E_i``)
- FU / D-cache-port structural hazards via windowed cycle-indexed
  reservation tables ("resources are preferentially given in
  instruction order", paper section 2.7)
- branch misprediction redirects and I-cache miss stalls
- accelerator instructions (``inst.accel`` set) bypass the core
  front-end: only E/P nodes exist, with transform-provided extra edges
  and accelerator resource tables.

Times are computed in one forward pass (the stream order is the
topological order), so multi-million-instruction traces evaluate in
O(n) — this is the paper's "windowed approach".
"""

import heapq

from repro.isa.opcodes import OpClass
from repro.obs import counter, is_enabled, span
from repro.tdg.mudg import EdgeKind

#: Critical-edge kinds by bind code.  Both engines count binds in a
#: list indexed by code (the C kernel's histogram slots) and name the
#: kinds once per run: a dict keyed by EdgeKind members would call the
#: Python-level ``Enum.__hash__`` per instruction.
BIND_KINDS = (
    EdgeKind.ISSUE, EdgeKind.DATA_DEP, EdgeKind.MEM_DEP,
    EdgeKind.ACCEL_DEP, EdgeKind.INORDER_ISSUE,
    EdgeKind.PORT_CONTENTION, EdgeKind.FU_CONTENTION,
    EdgeKind.ACCEL_RESOURCE,
)
(_ISSUE, _DATA_DEP, _MEM_DEP, _ACCEL_DEP, _INORDER_ISSUE,
 _PORT_CONTENTION, _FU_CONTENTION, _ACCEL_RESOURCE) = range(
    len(BIND_KINDS))


def bind_histogram(counts):
    """``{EdgeKind: count}`` of the non-zero per-code bind *counts*."""
    return {kind: count for kind, count in zip(BIND_KINDS, counts)
            if count}


class ResourceTable:
    """Windowed cycle-indexed reservation table (paper section 2.7).

    Tracks, per cycle, how many of the bank's units are busy.
    ``reserve`` books the earliest cycle >= *ready* with a free unit —
    resources are granted in instruction order, but earlier cycles left
    free by late-ready predecessors can still be back-filled, which is
    what preserves memory-level parallelism around long-latency misses.
    The window is pruned as time advances.
    """

    __slots__ = ("capacity", "used", "max_cycle")

    #: Lookback kept when pruning (well beyond ROB x DRAM latency).
    WINDOW = 65536

    def __init__(self, count):
        if count < 1:
            raise ValueError("resource count must be >= 1")
        self.capacity = count
        self.used = {}     # cycle -> busy units
        self.max_cycle = 0

    def reserve(self, ready, occupancy=1):
        used = self.used
        capacity = self.capacity
        cycle = int(ready)
        if occupancy == 1:
            while used.get(cycle, 0) >= capacity:
                cycle += 1
            used[cycle] = used.get(cycle, 0) + 1
        else:
            while True:
                if all(used.get(cycle + k, 0) < capacity
                       for k in range(occupancy)):
                    break
                cycle += 1
            for k in range(occupancy):
                used[cycle + k] = used.get(cycle + k, 0) + 1
        if cycle > self.max_cycle:
            self.max_cycle = cycle
            if len(used) > 2 * self.WINDOW:
                floor = self.max_cycle - self.WINDOW
                self.used = {c: n for c, n in used.items() if c >= floor}
        return cycle


class AccelResources:
    """Named resource tables used by accelerator-side instructions.

    *counts* gives issue bandwidth per accelerator tag (e.g. the
    writeback bus width).  *windows* optionally bounds the in-flight
    instruction window per tag — the operand-storage limit of dataflow
    fabrics (paper Table 2: "larger instruction window", larger than a
    core's, but finite).
    """

    def __init__(self, counts, windows=None):
        self.tables = {name: ResourceTable(count)
                       for name, count in counts.items()}
        self.windows = dict(windows or {})

    def reserve(self, name, ready, occupancy=1):
        return self.tables[name].reserve(ready, occupancy)


class TimingResult:
    """Output of one engine run."""

    def __init__(self, cycles, instructions, committed_uops,
                 commit_times=None, crit_histogram=None):
        self.cycles = cycles
        self.instructions = instructions
        self.committed_uops = committed_uops
        self.commit_times = commit_times
        self.crit_histogram = crit_histogram

    @property
    def ipc(self):
        if not self.cycles:
            return 0.0
        return self.committed_uops / self.cycles

    def __repr__(self):
        return (f"<TimingResult {self.cycles} cycles, "
                f"{self.instructions} insts, IPC={self.ipc:.2f}>")


class TimingEngine:
    """Evaluates instruction streams under a core configuration."""

    def __init__(self, config, accel_resources=None,
                 collect_commit_times=False):
        self.config = config
        self.accel_resources = accel_resources
        self.collect_commit_times = collect_commit_times

    # ------------------------------------------------------------------
    def run(self, stream, start_time=0):
        """Process *stream* (iterable of DynInst); returns TimingResult.

        Dependences whose producer seq is not in the stream (region
        live-ins) are treated as ready at *start_time*.

        Every run counts in ``repro_engine_runs_total`` (the sweep's
        dominant inner operation); with tracing enabled each run is
        also a ``tdg.engine.run`` span.  The timing math itself lives
        in :meth:`_run` so the disabled-tracing path pays nothing but
        a flag check.
        """
        counter("repro_engine_runs_total",
                "timing-engine evaluations (streams timed)").inc()
        if not is_enabled():
            return self._run(stream, start_time)
        with span("tdg.engine.run", core=self.config.name,
                  accel=self.accel_resources is not None) as current:
            result = self._run(stream, start_time)
            current.set(cycles=result.cycles,
                        instructions=result.instructions)
            return result

    def _run(self, stream, start_time=0):
        config = self.config
        width = config.width
        in_order = config.in_order
        decode_depth = config.decode_depth
        # In-order cores still have a bounded in-flight window (the
        # scoreboard / pipeline registers) limiting run-ahead under a
        # miss; matched to the reference simulator's capacity.
        rob_size = config.rob_size if not in_order \
            else width * (decode_depth + 4)
        iq_size = config.iq_size
        branch_penalty = config.branch_penalty
        collect_commits = self.collect_commit_times

        # Per-core-instruction node-time histories (index = core-inst
        # ordinal, not stream position).
        fetch_times = []
        dispatch_times = []
        commit_times = []
        # Issue-queue occupancy is count-based: a slot frees when its
        # occupant issues (possibly out of order), so we track slot
        # release times in a heap rather than with an i-IQ edge.
        iq_slots = []

        # seq -> complete time, for data/memory/extra deps.
        complete_of = {}

        # FU / port / issue-bandwidth reservation tables; the FU tables
        # are indexed by ``Opcode.class_id``.
        fu_tables = [ResourceTable(config.fu_count(op_class))
                     for op_class in OpClass]
        port_table = ResourceTable(config.dcache_ports)
        issue_table = ResourceTable(width)

        accel = self.accel_resources
        accel_history = {}   # tag -> complete times (window limit)
        bind_counts = [0] * len(BIND_KINDS)
        all_commit_times = [] if collect_commits else None

        redirect_time = 0     # earliest fetch after a mispredict
        last_e = start_time   # in-order issue chaining
        n_core = 0
        n_uops = 0
        final_time = start_time

        for inst in stream:
            opcode = inst.opcode
            seq = inst.seq
            n_uops += 1

            # ---------- accelerator-side instruction ------------------
            if inst.accel is not None:
                ready = start_time
                kind = None
                for dep in inst.src_deps:
                    t = complete_of.get(dep, start_time)
                    if t > ready:
                        ready = t
                        kind = _DATA_DEP
                if inst.mem_dep is not None:
                    t = complete_of.get(inst.mem_dep, start_time)
                    if t > ready:
                        ready = t
                        kind = _MEM_DEP
                for dep, lat in inst.extra_deps:
                    t = complete_of.get(dep, start_time) + lat
                    if t > ready:
                        ready = t
                        kind = _ACCEL_DEP
                start = ready
                if accel is not None:
                    window = accel.windows.get(inst.accel)
                    if window:
                        history = accel_history.setdefault(
                            inst.accel, [])
                        if len(history) >= window:
                            slot_free = history[-window]
                            if slot_free > start:
                                start = slot_free
                                kind = _ACCEL_RESOURCE
                    if inst.accel in accel.tables:
                        start = accel.reserve(inst.accel, start)
                        if start > ready:
                            kind = _ACCEL_RESOURCE
                if inst.mem_addr is not None:
                    # Accelerators share the cache; memory ops still
                    # contend for D-cache ports (paper Fig. 7).
                    port_start = port_table.reserve(start)
                    if port_start > start:
                        start = port_start
                        kind = _PORT_CONTENTION
                complete = start + inst.latency
                complete_of[seq] = complete
                if accel is not None and accel.windows.get(inst.accel):
                    accel_history.setdefault(inst.accel,
                                             []).append(complete)
                if complete > final_time:
                    final_time = complete
                if kind is not None:
                    bind_counts[kind] += 1
                if collect_commits:
                    all_commit_times.append(complete)
                continue

            # ---------- core-side instruction --------------------------
            # Fetch
            fetch = fetch_times[-1] if fetch_times else start_time
            if n_core >= width:
                bw = fetch_times[n_core - width] + 1
                if bw > fetch:
                    fetch = bw
            if redirect_time > fetch:
                fetch = redirect_time
            if inst.icache_lat:
                fetch += inst.icache_lat
            fetch_times.append(fetch)

            # Dispatch
            dispatch = fetch + decode_depth
            if dispatch_times:
                if dispatch_times[-1] > dispatch:
                    dispatch = dispatch_times[-1]
                if n_core >= width:
                    bw = dispatch_times[n_core - width] + 1
                    if bw > dispatch:
                        dispatch = bw
            if rob_size is not None and n_core >= rob_size:
                rob = commit_times[n_core - rob_size] + 1
                if rob > dispatch:
                    dispatch = rob
            if not in_order and iq_size is not None \
                    and len(iq_slots) >= iq_size:
                slot_free = heapq.heappop(iq_slots) + 1
                if slot_free > dispatch:
                    dispatch = slot_free
            dispatch_times.append(dispatch)

            # Operand readiness
            ready = dispatch + 1
            bind = _ISSUE
            for dep in inst.src_deps:
                t = complete_of.get(dep, start_time)
                if t > ready:
                    ready = t
                    bind = _DATA_DEP
            if inst.mem_dep is not None and not opcode.is_store:
                t = complete_of.get(inst.mem_dep, start_time)
                if t > ready:
                    ready = t
                    bind = _MEM_DEP
            for dep, lat in inst.extra_deps:
                t = complete_of.get(dep, start_time) + lat
                if t > ready:
                    ready = t
                    bind = _ACCEL_DEP
            if in_order and last_e > ready:
                ready = last_e
                bind = _INORDER_ISSUE

            # Structural hazards: issue bandwidth, then FU / D$ port.
            latency = inst.latency
            occupancy = latency if opcode.unpipelined else 1
            slot = issue_table.reserve(ready)
            if slot > ready:
                ready = slot
                bind = _ISSUE
            if inst.mem_addr is not None:
                issue = port_table.reserve(ready, occupancy)
                if issue > ready:
                    bind = _PORT_CONTENTION
            else:
                issue = fu_tables[opcode.class_id].reserve(ready,
                                                           occupancy)
                if issue > ready:
                    bind = _FU_CONTENTION
            if not in_order and iq_size is not None:
                heapq.heappush(iq_slots, issue)
            last_e = issue

            complete = issue + latency
            complete_of[seq] = complete

            # Commit
            commit = complete + 1
            if commit_times:
                if commit_times[-1] > commit:
                    commit = commit_times[-1]
                if n_core >= width:
                    bw = commit_times[n_core - width] + 1
                    if bw > commit:
                        commit = bw
            commit_times.append(commit)
            if collect_commits:
                all_commit_times.append(commit)
            if commit > final_time:
                final_time = commit

            if inst.mispredicted:
                penalty = complete + branch_penalty
                if penalty > redirect_time:
                    redirect_time = penalty

            bind_counts[bind] += 1
            n_core += 1

        cycles = final_time - start_time
        return TimingResult(
            cycles=cycles,
            instructions=n_uops,
            committed_uops=n_uops,
            commit_times=all_commit_times,
            crit_histogram=bind_histogram(bind_counts),
        )
