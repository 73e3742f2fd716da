"""Shared machinery for BSA models.

:class:`AnalysisContext` caches the per-TDG analyses (loop forest,
intervals, path profiles with every loop's iterations, dependence
info, slices) so multiple BSA models share them.  :class:`BSAModel` is
the analyzer+transformer interface; :class:`RegionEstimate` is the
per-static-region output the ExoCore schedulers consume.
"""

from repro.analysis.loops import build_loop_forest
from repro.analysis.memdep import analyze_loop_dependences
from repro.analysis.pathprof import profile_paths
from repro.analysis.regions import loop_intervals
from repro.analysis.slicing import slice_loop_body
from repro.energy.mcpat import EnergyModel
from repro.isa.opcodes import Opcode
from repro.obs import counter, span
from repro.tdg.fastpath import (
    SYNTHESIZED_SEQ_BASE, FastTimingEngine, LoweredStream, OffloadTable,
    StreamBuilder, baseline_from_columns, trace_facts,
)


#: Deterministic work counters, labeled ``path=`` (``baseline`` or a
#: BSA name): instructions through each per-region pipeline step.
_WORK_COUNTERS = {
    "repro_insts_transformed_total":
        "trace instructions run through a BSA transform",
    "repro_insts_lowered_total":
        "instructions lowered to int64 arrays for the kernel",
    "repro_insts_priced_total": "instructions reduced to energy events",
}


def count_work(name, amount, path):
    """Add *amount* to work counter *name* for *path*."""
    counter(name, _WORK_COUNTERS[name]).inc(amount, path=path)


def window_depths(max_invocations):
    """``(depths, single)`` of a ``max_invocations`` argument.

    One window depth (an int, or None for every invocation) asks for
    one result, returned as it is; a tuple of depths asks for one
    result per distinct depth, returned as ``{depth: result}``.  Every
    evaluation layer takes both forms through the same code: one depth
    is a tuple of one.
    """
    if isinstance(max_invocations, tuple):
        return tuple(dict.fromkeys(max_invocations)), False
    return (max_invocations,), True


class SeqAllocator:
    """Fresh sequence ids for transform-synthesized instructions.

    Ids start far above any original trace seq
    (:data:`~repro.tdg.fastpath.SYNTHESIZED_SEQ_BASE`) so live-in
    references to original producers never collide.
    """

    _BASE = SYNTHESIZED_SEQ_BASE

    def __init__(self):
        self._next = SeqAllocator._BASE

    def next(self):
        seq = self._next
        self._next += 1
        return seq


def map_deps(dyn, seq_map):
    """*dyn*'s source deps, each renamed to its transformed producer's
    seq where *seq_map* has one."""
    deps = dyn.src_deps
    return tuple(map(seq_map.get, deps, deps))


def remap(dyn, seq_map, out, edges=()):
    """Add *dyn* to *out* (a :class:`~repro.tdg.fastpath.StreamBuilder`)
    with its register and memory deps renamed to transformed producers
    (see :func:`map_deps`) and *edges*, ``(seq, latency)`` pairs, after
    its own; kept as it is when nothing changes.  Returns its row."""
    if not edges and seq_map.keys().isdisjoint(dyn.src_deps) \
            and dyn.mem_dep not in seq_map:
        return out.keep(dyn)
    return out.emit(dyn, src_deps=map_deps(dyn, seq_map),
                    mem_dep=seq_map.get(dyn.mem_dep, dyn.mem_dep),
                    extra_deps=dyn.extra_deps + edges)


# The per-instruction rewrite rules the BSA transforms share.  Module
# globals, not ``Opcode.X`` reads: on Python 3.11 a class-attribute
# read on an Enum costs ~10x a global one, and these rules run once
# per trace instruction.
_BR, _JMP, _MOV, _LI = Opcode.BR, Opcode.JMP, Opcode.MOV, Opcode.LI
_CFU, _SWITCH, _VLD, _VST = Opcode.CFU, Opcode.SWITCH, Opcode.VLD, Opcode.VST


def offload_dataflow(dyn, loop_uids, accel, edges, slots, chains,
                     seq_map, seq_alloc, out):
    """Rewrite one trace instruction of a dataflow region (NS-DF,
    Trace-P) into *out*.

    A stray instruction (uid outside *loop_uids*) stays on the core.
    A branch becomes a one-cycle accelerator ``switch``, a jump is
    dropped (unconditional control is free in dataflow), and a memory
    op issues from the accelerator.  Compute/MOV/LI fuse into compound
    FUs (``cfu``): *slots* maps a uid to its ``(chain, position,
    length)`` in the region's CFU schedule
    (:attr:`~repro.analysis.cfu.CFUSchedule.slots`), and *chains* holds
    the open chains, ``{chain: (row, seq, next position)}``.  A chain
    head, or an instance out of chain order, opens a fresh compound op;
    the next member in order folds into it
    (:meth:`~repro.tdg.fastpath.StreamBuilder.fold`).  The caller owns
    *chains* and starts it empty wherever fusion must not continue.
    Every new accelerator instruction carries *edges*, the ``(seq,
    latency)`` control or entry edges its model charges.  Anything
    else stays on the core.

    Returns the seq of the accelerator instruction added, or None
    (stray, dropped, folded into an open compound op, or kept on the
    core).
    """
    uid = dyn.uid
    if uid not in loop_uids:
        remap(dyn, seq_map, out)
        return None
    opcode = dyn.opcode
    if opcode is _JMP:
        return None
    mapped = map_deps(dyn, seq_map)
    if opcode is _BR:
        seq = seq_alloc.next()
        out.emit(dyn, seq=seq, opcode=_SWITCH, accel=accel,
                 src_deps=mapped, extra_deps=edges, mispredicted=False,
                 icache_lat=0, lat_override=1)
    elif dyn.mem_addr is not None:
        seq = seq_alloc.next()
        out.emit(dyn, seq=seq, accel=accel, src_deps=mapped,
                 extra_deps=edges, icache_lat=0,
                 mem_dep=seq_map.get(dyn.mem_dep, dyn.mem_dep))
    elif opcode.is_compute or opcode is _MOV or opcode is _LI:
        slot = slots.get(uid)
        if slot is not None:
            chain, position, length = slot
            pending = chains.get(chain) if position else None
            if pending is not None and pending[2] == position:
                row, seq, _ = pending
                out.fold(row, dyn, mapped)
                if position + 1 < length:
                    chains[chain] = (row, seq, position + 1)
                else:
                    del chains[chain]
                seq_map[dyn.seq] = seq
                return None
        seq = seq_alloc.next()
        row = out.emit(dyn, seq=seq, opcode=_CFU, accel=accel,
                       src_deps=mapped, extra_deps=dyn.extra_deps + edges,
                       lat_override=dyn.latency, vector_width=1,
                       mispredicted=False, icache_lat=0)
        if slot is not None and length > 1 and not position:
            chains[chain] = (row, seq, 1)
    else:
        remap(dyn, seq_map, out)
        return None
    seq_map[dyn.seq] = seq
    return seq


def offload_table(ctx, plan, accel, forward, **latencies):
    """*plan* (NS-DF, Trace-P) compiled for the C offload
    (:class:`~repro.tdg.fastpath.OffloadTable`), or None without a
    lowered trace (:attr:`AnalysisContext.trace_facts`).

    The offload applies :func:`offload_dataflow` to an interval of the
    lowered trace and lowers the result, with no Python row per
    instruction.  The plan becomes a per-static-instruction table:
    outside the loop (a stray), or inside it with the instruction's CFU
    slot ``(chain, position, length)`` when it has one.  What an
    in-loop instance becomes (a dropped ``jmp``, a ``switch``, an
    accelerator memory op, a compound op or a row kept on the core)
    follows its opcode, as in :func:`offload_dataflow`.  *forward* is
    the model's dataflow latency; *latencies* its switch latency or
    mispeculation penalty.
    """
    if ctx.trace_facts is None:
        return None
    schedule = plan["schedule"]
    slots = schedule.slots
    table = [-2, 0, 0] * len(ctx.tdg.program.static_instructions)
    for uid in plan["loop"].uids:
        table[3 * uid:3 * uid + 3] = slots.get(uid, (-1, 0, 0))
    return OffloadTable(table, len(schedule.cfus), accel, forward,
                        **latencies)


def iteration_groups(trace, spans, group_len, seq_map, out):
    """Yield the iteration *spans* in full groups of *group_len*.

    The leftover iterations, fewer than *group_len*, stay scalar: once
    the last group has been consumed, they are added to *out* with
    their deps remapped.
    """
    full = len(spans) - len(spans) % group_len
    for index in range(0, full, group_len):
        yield spans[index:index + group_len]
    for span_start, span_end in spans[full:]:
        for index in range(span_start, span_end):
            remap(trace[index], seq_map, out)


def gather_instances(trace, group, loop_uids, seq_map, out):
    """Each loop instruction's instances across one iteration group.

    Returns ``({uid: [DynInst, ...]}, uids)``, the uids sorted by
    static program position so emission is deterministic.  A stray
    (callee) instruction stays scalar: it is added to *out* with its
    deps remapped.
    """
    instances = {}
    for span_start, span_end in group:
        for index in range(span_start, span_end):
            dyn = trace[index]
            uid = dyn.uid
            if uid not in loop_uids:
                remap(dyn, seq_map, out)
            elif uid in instances:
                instances[uid].append(dyn)
            else:
                instances[uid] = [dyn]
    order = sorted(instances, key=lambda uid: (
        instances[uid][0].static.block.index,
        instances[uid][0].static.index))
    return instances, order


def _mem_lat(dyn):
    return dyn.mem_lat


def emit_vector_access(group_insts, seq, width, extra_latency, seq_map,
                       out):
    """One contiguous-stride vector load/store (``vld``/``vst``) for a
    group's instances of one memory op.

    The group's worst latency, plus *extra_latency*, is remapped onto
    the vector access (paper: "memory latency information is re-mapped
    onto the vectorized iteration"); every instance maps to *seq*.
    """
    rep = group_insts[0]
    worst = max(group_insts, key=_mem_lat)
    out.emit(rep, seq=seq, opcode=_VLD if rep.static.is_load else _VST,
             vector_width=width, mem_lat=worst.mem_lat + extra_latency,
             mem_level=worst.mem_level, src_deps=map_deps(rep, seq_map),
             mem_dep=seq_map.get(rep.mem_dep, rep.mem_dep))
    for dyn in group_insts:
        seq_map[dyn.seq] = seq


class AnalysisContext:
    """Caches analyses over one TDG, shared across BSA models."""

    def __init__(self, tdg):
        self.tdg = tdg
        with span("analysis.context"):
            self.forest = build_loop_forest(tdg.program)
            self.intervals = loop_intervals(tdg, self.forest)
            self.path_profiles = profile_paths(tdg, self.forest,
                                               self.intervals)
        counter("repro_loop_iterations_total",
                "loop iterations recorded by the path profiler").inc(
            sum(profile.iterations
                for profile in self.path_profiles.values()))
        self._dep_info = {}
        self._slices = {}
        self._energy_models = {}
        self._baseline = None
        self._trace_facts = False

    def baseline(self):
        """``(timed, events)`` of the whole trace, as
        :meth:`~repro.tdg.fastpath.StreamBuilder.finish` gives them:
        the trace is lowered once, for the baseline runs and the
        dataflow offload alike.

        With the kernel, an interpreter trace is packed from the
        columns the interpreter filled
        (:func:`~repro.tdg.fastpath.baseline_from_columns`), which also
        gives :attr:`trace_facts`.  Any other trace, or any trace
        without the kernel, takes the builder every BSA stream takes,
        whose walk stays the reference."""
        if self._baseline is None:
            packed = baseline_from_columns(self.tdg.trace)
            if packed is None:
                out = StreamBuilder()
                out.extend(self.tdg.trace.instructions)
                self._baseline = out.finish()
            else:
                lowered, events, self._trace_facts = packed
                self._baseline = lowered, events
        return self._baseline

    @property
    def trace_facts(self):
        """The lowered trace with the per-row facts the dataflow
        offload reads (:class:`~repro.tdg.fastpath.TraceFacts`), or
        None when the trace is not lowered (no kernel, or an
        unlowerable trace) or the offload cannot read it."""
        if self._trace_facts is False:
            # Packing the interpreter's columns also gives the facts.
            timed, events = self.baseline()
            if self._trace_facts is False:
                self._trace_facts = None \
                    if timed.__class__ is not LoweredStream \
                    else trace_facts(self.tdg.trace.instructions, timed,
                                     events)
        return self._trace_facts

    def dep_info(self, loop):
        key = loop.key
        if key not in self._dep_info:
            with span("analysis.dep_info", loop=loop.header):
                self._dep_info[key] = analyze_loop_dependences(
                    self.tdg.trace.instructions, loop,
                    self.path_profiles[key].spans.values())
        return self._dep_info[key]

    def slice_info(self, loop):
        key = loop.key
        if key not in self._slices:
            with span("analysis.slice_info", loop=loop.header):
                self._slices[key] = slice_loop_body(
                    self.tdg.trace.instructions, loop,
                    self.path_profiles[key].spans.values())
        return self._slices[key]

    def spans_of(self, loop, interval):
        """The ``[start, end)`` span of each iteration of the
        invocation *interval* (one of ``intervals[loop.key]``), as the
        path profiler recorded them."""
        return self.path_profiles[loop.key].spans[interval]

    def energy_model(self, core_config):
        if core_config.name not in self._energy_models:
            self._energy_models[core_config.name] = \
                EnergyModel(core_config)
        return self._energy_models[core_config.name]


class RegionEstimate:
    """Accelerated cost of one static region under one core config."""

    def __init__(self, loop_key, accel_name, cycles, energy_pj,
                 dyn_insts, invocations, accel_cycles=None):
        self.loop_key = loop_key
        self.accel_name = accel_name
        self.cycles = cycles
        self.energy_pj = energy_pj
        self.dyn_insts = dyn_insts
        self.invocations = invocations
        # Cycles actually spent in accelerated mode (== cycles unless
        # part of the region replays on the core).
        self.accel_cycles = accel_cycles if accel_cycles is not None \
            else cycles

    def __repr__(self):
        return (f"<RegionEstimate {self.accel_name}@{self.loop_key}: "
                f"{self.cycles} cyc, {self.energy_pj/1000:.1f} nJ>")


class BSAModel:
    """Base class: one behavior-specialized accelerator model.

    Subclasses set :attr:`name`, implement :meth:`find_candidates`
    (returns {loop_key: plan}) and :meth:`transform_interval` (emits
    the transformed instruction stream of one invocation, given the
    core's ``vector_len``), and may override the resource/energy
    hooks.
    """

    #: Short name; also the ``accel`` tag on transformed instructions.
    name = None

    #: Cycles charged at each region entry (configuration check,
    #: live-value transfer); refined per model.
    entry_overhead = 0

    #: Whether the BSA powers down the core pipeline while active.
    power_gates_core = False

    #: Cycles charged on accelerator-internal dataflow edges (see
    #: :class:`~repro.tdg.fastpath.StreamBuilder`); 0 forwards for free.
    dataflow_latency = 0

    #: Fast mode uses the paper's approximations; detailed mode is the
    #: validation reference (finer contention, exact latencies).
    def __init__(self, detailed=False):
        self.detailed = detailed

    # -- analyzer ------------------------------------------------------
    def find_candidates(self, ctx):
        """Map loop_key -> plan for every legal+profitable region."""
        raise NotImplementedError

    # -- transformer -----------------------------------------------------
    def transform_interval(self, ctx, plan, interval, vector_len,
                           seq_alloc, out):
        """Rewrite one invocation's trace slice into *out*, a
        :class:`~repro.tdg.fastpath.StreamBuilder`.

        *vector_len* is the host core's SIMD width, the only core
        parameter a transform may depend on: the result is timed and
        priced on every core that shares it.  *seq_alloc* (a
        :class:`SeqAllocator`) is shared by all invocations of the
        region evaluated together.
        """
        raise NotImplementedError

    def accel_resources(self, core_config):
        """Resource tables for the engine (override per model)."""
        return None

    def region_entry_overhead(self, plan):
        """Cycles charged per region entry (configuration check, live
        value transfer).  Default: the class attribute."""
        return self.entry_overhead

    def dataflow_offload(self, ctx, plan):
        """*plan* compiled for the C dataflow offload
        (:func:`offload_table`), or None: for a BSA whose transform is
        not :func:`offload_dataflow` alone (the default), or without a
        lowered trace.  A BSA that returns one also gives
        :meth:`offload_spans`."""
        return None

    def offload_spans(self, ctx, plan, interval):
        """One interval as the offload's flat ``(start, end, mode)``
        spans (``SPAN_*`` of :mod:`repro.tdg.fastpath`)."""
        raise NotImplementedError

    def estimate_speedup(self, ctx, plan, core_config):
        """Approximate speedup from static/profile information only —
        what a profile-based compiler would embed in the binary for the
        Amdahl-tree scheduler (paper section 3.3).  Deliberately rough;
        must NOT consult measured TDG timing."""
        return 1.0

    # -- evaluation ------------------------------------------------------
    def evaluate_region(self, ctx, plan, core_config,
                        max_invocations=None):
        """Evaluate all invocations of one static region on one core.

        Returns a :class:`RegionEstimate` (None for a region that never
        ran); see :meth:`evaluate_region_on_cores`.
        """
        estimates = self.evaluate_region_on_cores(
            ctx, plan, (core_config,), max_invocations)
        return None if estimates is None else estimates[0]

    def evaluate_region_on_cores(self, ctx, plan, core_configs,
                                 max_invocations=None):
        """Evaluate all invocations of one static region on each core.

        Returns one :class:`RegionEstimate` per entry of
        *core_configs*, in order, or None for a region that never ran.
        Invocation costs beyond *max_invocations* are extrapolated from
        the evaluated mean.  A tuple of window depths
        (:func:`window_depths`) returns ``{depth: [estimate per
        core]}`` instead.

        The first ``max(depths)`` intervals are transformed, lowered
        and reduced to energy events once per distinct transform input,
        then timed and priced on every core.  Each interval is timed
        on its own, so every depth reads its totals off the same runs:
        integer cycles and energy summed in invocation order, exactly
        as a run at that depth alone sums them.  The transform input
        is the core's ``vector_len`` plus the plan's cross-invocation
        state (DP-CGRA's ``config_cache`` LRU, which carries over from
        one core to the next exactly as if each core re-transformed).
        That state holds only the plan's own loop, so it is the same
        after one transformed interval as after any more: a deeper
        window leaves the next core the cache a shallower one would.
        """
        depths, single = window_depths(max_invocations)
        key = plan["loop"].key
        intervals = ctx.intervals.get(key, ())
        if not intervals:
            return None
        counts = {depth: len(intervals[:depth]) for depth in depths}
        evaluated = intervals[:max(counts.values())]
        entry_overhead = self.region_entry_overhead(plan)
        core_active = not self.power_gates_core
        active_accels = (self.name,)
        dyn = sum(end - start for start, end in intervals)
        config_cache = plan.get("config_cache")
        transformed = {}   # transform input -> (costed, cache after)
        estimates = {depth: [] for depth in depths}
        for config in core_configs:
            reuse_key = (config.vector_len, tuple(config_cache or ()))
            if reuse_key in transformed:
                costed, cache_after = transformed[reuse_key]
                if config_cache is not None:
                    config_cache[:] = cache_after
            else:
                costed = self._transform_region(ctx, plan, evaluated,
                                                config.vector_len)
                transformed[reuse_key] = (costed,
                                          tuple(config_cache or ()))
            energy_model = ctx.energy_model(config)
            # Running totals after each invocation: prefix[n] covers
            # the first n.
            prefix = [(0, 0.0)]
            total_cycles = 0
            total_energy = 0.0
            for timed, events in costed:
                result = FastTimingEngine(
                    config,
                    accel_resources=self.accel_resources(config),
                ).run(timed)
                cycles = result.cycles + entry_overhead
                total_cycles += cycles
                total_energy += energy_model.price(
                    events, cycles, core_active=core_active,
                    active_accels=active_accels).total_pj
                prefix.append((total_cycles, total_energy))
            for depth in depths:
                count = counts[depth]
                total_cycles, total_energy = prefix[count]
                if count < len(intervals):
                    scale = len(intervals) / count
                    total_cycles = int(total_cycles * scale)
                    total_energy *= scale
                estimates[depth].append(RegionEstimate(
                    key, self.name, total_cycles, total_energy, dyn,
                    len(intervals)))
        return estimates[depths[0]] if single else estimates

    def _transform_region(self, ctx, plan, evaluated, vector_len):
        """Transform each evaluated interval into a
        :class:`~repro.tdg.fastpath.StreamBuilder`, which lowers it and
        reduces it to energy events in one walk; returns
        ``[(timed stream, EnergyEvents), ...]``, each stream in the form
        :meth:`~repro.tdg.fastpath.StreamBuilder.finish` picks.  A
        region with a :meth:`dataflow_offload` skips the builder: the C
        offload gives the same lowered stream and events.
        """
        seq_alloc = SeqAllocator()
        costed = []
        emitted = lowered = 0
        with span("accel.transform", bsa=self.name):
            offload = self.dataflow_offload(ctx, plan)
            for interval in evaluated:
                if offload is not None:
                    timed, events, seq_alloc._next = offload.run(
                        ctx.trace_facts, interval,
                        self.offload_spans(ctx, plan, interval),
                        seq_alloc._next)
                    lowered += len(timed)
                    emitted += len(timed)
                    costed.append((timed, events))
                    continue
                out = StreamBuilder(self.dataflow_latency)
                self.transform_interval(ctx, plan, interval, vector_len,
                                        seq_alloc, out)
                timed, events = out.finish()
                if timed.__class__ is LoweredStream:
                    lowered += len(out)
                costed.append((timed, events))
                emitted += len(out)
        count_work("repro_insts_transformed_total",
                   sum(end - start for start, end in evaluated), self.name)
        count_work("repro_insts_lowered_total", lowered, self.name)
        count_work("repro_insts_priced_total", emitted, self.name)
        return costed
