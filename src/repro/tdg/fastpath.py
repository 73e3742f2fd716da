"""Flat array-of-struct fast path for the TDG timing engine.

:class:`~repro.tdg.engine.TimingEngine` walks Python object graphs:
every dynamic instruction is a :class:`~repro.sim.trace.DynInst` whose
latency/op-class are resolved through properties and dict lookups, and
every reservation is a dict probe.  That costs ~3.5 µs per instruction.

This module restructures the same computation into flat parallel
arrays evaluated by a compiled kernel:

- A :class:`StreamBuilder` collects an instruction stream (BSA
  transforms emit into one) and walks it **once** (:func:`_walk`) into
  a :class:`LoweredStream` of ``array('q')`` int64 buffers (latency,
  occupancy, FU table id, dependence CSR, accelerator tag ids, ...)
  and the stream's core-independent energy events.  Producer
  references are resolved from seq ids to stream positions at
  lowering time, so the hot loop indexes a dense ``complete[]`` array
  instead of probing a dict.
- The baseline trace is not walked: the interpreter fills its
  per-row columns as it executes, and :func:`baseline_from_columns`
  packs them into the same :class:`LoweredStream`, its
  :class:`TraceFacts` and its events.  A trace the interpreter did not
  build, or any trace without the kernel, is kept into a
  :class:`StreamBuilder` instead, whose walk stays the reference
  (``tests/test_baseline_loop_events.py`` checks the two against each
  other).
- :class:`FastTimingEngine` evaluates a lowered stream with the exact
  edge rules of the object engine in a C kernel (``_KERNEL_SOURCE``,
  built once per source digest and loaded through ctypes).  Its
  reservation tables are windowed circular buffers: a cycle's
  occupancy lives at ``cycle & (WINDOW-1)`` with a validity mark.
  Results are asserted byte-identical to the object engine by
  ``tests/test_fastpath_equivalence.py``.

Engine selection
----------------

There is one kernel with two entry points, built and loaded together:
``repro_fastpath_run`` times a :class:`LoweredStream`, and
``repro_dataflow_offload`` (:class:`OffloadTable`) applies an NS-DF or
Trace-P plan to an interval of the lowered trace (:class:`TraceFacts`)
and lowers the result, giving what the Python transform plus
:meth:`StreamBuilder.finish` give.  The Python transform is the
reference: ``tests/test_dataflow_offload.py`` checks the offload
against it field for field.  With every static instruction a stray,
the same entry point reduces the baseline's per-loop spans to energy
events (:meth:`TraceFacts.span_events`), checked against
:func:`stream_events` by ``tests/test_baseline_loop_events.py``.

There is one implementation choice:
:meth:`StreamBuilder.finish` lowers a stream when the kernel loads
(:func:`kernel_available`; ``$REPRO_NO_KERNEL=1`` forces it off) and
hands back the stream's :class:`~repro.sim.trace.DynInst` rows
otherwise, or when the stream's columns cannot be packed (a
non-integer latency).  :func:`baseline_from_columns` makes the same
choice for the baseline trace: it packs only when the kernel loads and
the columns are int64-lowerable.  The dataflow offload follows it:
it runs only on a lowered trace.  :class:`FastTimingEngine` follows the
form it is given: the kernel times a :class:`LoweredStream`, the
reference :class:`~repro.tdg.engine.TimingEngine` times rows.  Because
the two paths are byte-identical, the choice is not an option anywhere
and does not participate in the sweep cache key (the fastpath *source*
is covered by ``engine_version_hash`` like every other ``tdg`` module,
so a change to this file still cold-starts the cache).  The engine
refuses a lowered stream it cannot time: without a kernel, or with a
pre-used :class:`~repro.tdg.engine.AccelResources`, whose carried-over
reservations only the object engine models.
"""

import array
import ctypes
import hashlib
import os
import struct
import subprocess
import tempfile
import threading
from operator import itemgetter
from pathlib import Path

from repro.energy.cacti import DRAM_ACCESS_PJ, L1D_SRAM, L2_SRAM
from repro.energy.mcpat import (
    EnergyEvents, _ACCEL_NETWORK_PJ, _ACCEL_OP_PJ, _BACKEND,
    _CFU_EXTRA_OP_PJ, _CONFIG_PJ, _FRONTEND, _FU_PJ, _SEND_RECV_PJ,
    _STORE_BUFFER_PJ, _VECTOR_LANE_FACTOR,
)
from repro.isa.opcodes import Opcode, OpClass
from repro.obs import counter
from repro.sim.trace import _KEEP, MEM_LEVEL_CODES, DynInst
from repro.tdg.engine import (
    TimingEngine, TimingResult, bind_histogram,
)

#: Table ids: one per OpClass (``Opcode.class_id``), then the shared
#: D-cache port table.
_OP_CLASSES = tuple(OpClass)
PORT_TABLE = len(_OP_CLASSES)
_N_TABLES = PORT_TABLE + 1

#: FU op energy (pJ per scalar op) by ``Opcode.class_id``.
_FU_PJ_BY_CLASS = tuple(_FU_PJ[cls] for cls in _OP_CLASSES)


class LoweringError(Exception):
    """Stream cannot be represented exactly as int64 arrays."""


def _int_array(values):
    """C-contiguous int64 buffer of a sequence of ints (or bools).

    Packed with :mod:`struct`, which converts about twice as fast as
    the array constructor.  Non-integer and out-of-range values raise
    ``struct.error`` instead of being coerced: a stream carrying float
    latencies must take the object path, where float arithmetic is
    modeled exactly.
    """
    return array.array("q", struct.pack(f"{len(values)}q", *values))


def _addr_of(buf):
    """Base address of an int64 buffer (0 for empty buffers).

    The address stays valid for the buffer's lifetime; callers must
    keep the owning object alive across the kernel call (lowered
    streams hold theirs, per-run buffers are locals).
    """
    return buf.buffer_info()[0] if len(buf) else 0


class LoweredStream:
    """One instruction stream as parallel int64 arrays.

    Lower once, evaluate many times: the per-benchmark baseline path
    runs the same trace under four core configs, so the evaluator
    lowers the trace a single time and hands the ``LoweredStream`` to
    each engine run.
    """

    #: Kernel argument order of the per-instruction arrays.
    FIELDS = (
        "is_accel", "lat", "occ", "tab", "is_mem", "is_store",
        "memdep", "dep_ptr", "dep_idx", "extra_ptr", "extra_idx",
        "extra_lat", "mispred", "icache", "accel_tag",
    )

    __slots__ = FIELDS + ("n", "accel_tags", "_addrs")

    def __init__(self, columns, accel_tags):
        try:
            for field, values in zip(self.FIELDS, columns):
                setattr(self, field, _int_array(values))
        except struct.error as exc:
            raise LoweringError(f"stream is not int64-lowerable: {exc}") \
                from exc
        self.n = len(self.lat)
        self.accel_tags = accel_tags
        self._addrs = None

    @classmethod
    def from_buffers(cls, buffers, accel_tags):
        """A stream over ready int64 *buffers*, in :data:`FIELDS`
        order (the dataflow offload's output), taken as they are."""
        stream = object.__new__(cls)
        for field, buffer in zip(cls.FIELDS, buffers):
            setattr(stream, field, buffer)
        stream.n = len(stream.lat)
        stream.accel_tags = accel_tags
        stream._addrs = None
        return stream

    def addrs(self):
        """Buffer addresses in :data:`FIELDS` order, computed once.

        Caching keeps the per-run kernel dispatch overhead flat
        regardless of how often a lowered stream is re-evaluated.
        """
        addrs = self._addrs
        if addrs is None:
            addrs = self._addrs = tuple(
                _addr_of(getattr(self, field)) for field in self.FIELDS)
        return addrs

    def __len__(self):
        return self.n


#: Seqs at and above this name transform-synthesized instructions
#: (:class:`~repro.accel.base.SeqAllocator` starts here), far above any
#: trace seq.
SYNTHESIZED_SEQ_BASE = 1 << 40

# Module globals for the opcodes the walk tests per row: on Python
# 3.11 even ``Opcode.BR`` costs ~10x a global read.
_CFU, _CFG, _BR, _SEND, _RECV, _LD, _ST = (
    Opcode.CFU, Opcode.CFG, Opcode.BR, Opcode.SEND, Opcode.RECV, Opcode.LD,
    Opcode.ST)

#: Where the patched fields sit in an emitted row, a list of the
#: :class:`~repro.sim.trace.DynInst` fields in slot order.
_SEQ, _SRC_DEPS, _EXTRA_DEPS, _LAT_OVERRIDE, _VECTOR_WIDTH = map(
    DynInst.__slots__.index,
    ("seq", "src_deps", "extra_deps", "lat_override", "vector_width"))


class StreamBuilder:
    """One instruction stream, built row by row, then lowered and
    reduced to energy events in one walk.

    BSA and DSL transforms add rows (:meth:`emit`, :meth:`keep`,
    :meth:`synthesize`) and patch rows added earlier
    (:meth:`merge_deps`, :meth:`fold`, :meth:`add_edge`);
    :meth:`extend` keeps every instruction of a list (a baseline
    trace not packed from the interpreter's columns).  A kept
    instruction is the caller's own
    :class:`~repro.sim.trace.DynInst`, unchanged; an emitted row is a
    plain list of the DynInst fields, so building a transformed stream
    constructs no DynInst.  :meth:`finish` walks the rows
    (:func:`_walk`, the reference for both per-instruction rules) for
    the form the timing engine takes and the core-independent energy
    events; add no row after that.

    *dataflow_latency*, when non-zero, charges fabric forwarding on
    accelerator-internal edges: an accelerator row's deps on
    synthesized producers (seq at or above
    :data:`SYNTHESIZED_SEQ_BASE`) become ``(seq, latency)`` edges after
    the row's own.
    """

    __slots__ = ("dataflow_latency", "_rows")

    def __init__(self, dataflow_latency=0):
        self.dataflow_latency = dataflow_latency
        self._rows = []

    def __len__(self):
        return len(self._rows)

    # -- rows --------------------------------------------------------------
    def keep(self, dyn):
        """Add *dyn* as it is; returns its row index."""
        self._rows.append(dyn)
        return len(self._rows) - 1

    def extend(self, stream):
        """Keep every instruction of *stream* (a DynInst list)."""
        self._rows += stream

    def emit(self, dyn, seq=_KEEP, static=_KEEP, opcode=_KEEP,
             src_deps=_KEEP, mem_dep=_KEEP, mem_addr=_KEEP, mem_lat=_KEEP,
             mem_level=_KEEP, taken=_KEEP, mispredicted=_KEEP,
             icache_lat=_KEEP, accel=_KEEP, extra_deps=_KEEP,
             lat_override=_KEEP, vector_width=_KEEP):
        """Add *dyn* with the given fields replaced (the arguments of
        :meth:`~repro.sim.trace.DynInst.clone`); returns its row
        index."""
        self._rows.append([
            dyn.seq if seq is _KEEP else seq,
            dyn.static if static is _KEEP else static,
            dyn.opcode if opcode is _KEEP else opcode,
            dyn.src_deps if src_deps is _KEEP else tuple(src_deps),
            dyn.mem_dep if mem_dep is _KEEP else mem_dep,
            dyn.mem_addr if mem_addr is _KEEP else mem_addr,
            dyn.mem_lat if mem_lat is _KEEP else mem_lat,
            dyn.mem_level if mem_level is _KEEP else mem_level,
            dyn.taken if taken is _KEEP else taken,
            dyn.mispredicted if mispredicted is _KEEP else mispredicted,
            dyn.icache_lat if icache_lat is _KEEP else icache_lat,
            dyn.accel if accel is _KEEP else accel,
            dyn.extra_deps if extra_deps is _KEEP else tuple(extra_deps),
            dyn.lat_override if lat_override is _KEEP else lat_override,
            dyn.vector_width if vector_width is _KEEP else vector_width])
        return len(self._rows) - 1

    def synthesize(self, seq, static, opcode, src_deps=(),
                   lat_override=None, vector_width=1):
        """Add a fresh plumbing instruction (configuration, transfer,
        mask): the :class:`~repro.sim.trace.DynInst` constructor's
        defaults, with no memory access, branch outcome or I-cache
        stall of its own; returns its row index."""
        self._rows.append([seq, static, opcode, tuple(src_deps), None,
                           None, 0, None, None, False, 0, None, (),
                           lat_override, vector_width])
        return len(self._rows) - 1

    # -- patches -----------------------------------------------------------
    def merge_deps(self, row, mapped_deps):
        """Merge deps *mapped_deps* (already renamed) into the row
        emitted at *row*.

        A dep joins unless it is the row's own seq or already one of
        its deps; the merged deps are not deduplicated among
        themselves.  The walk resolves them at *row*, like the row's
        own: a producer added after it is a live-in.
        """
        fields = self._rows[row]
        head_seq = fields[_SEQ]
        deps = fields[_SRC_DEPS]
        external = []
        for dep in mapped_deps:
            if dep != head_seq and dep not in deps:
                external.append(dep)
        if external:
            fields[_SRC_DEPS] = deps + tuple(external)

    def fold(self, row, dyn, mapped_deps):
        """Fold compute instruction *dyn* into the compound op emitted
        at *row*: its latency adds on (serialized compound execution,
        as in BERET), the op counts one more fused lane, and its deps
        *mapped_deps* (already renamed) merge in (:meth:`merge_deps`).
        """
        self.merge_deps(row, mapped_deps)
        fields = self._rows[row]
        fields[_LAT_OVERRIDE] = (fields[_LAT_OVERRIDE] or 0) + dyn.latency
        fields[_VECTOR_WIDTH] += 1

    def add_edge(self, row, seq, latency):
        """Append the edge ``(seq, latency)`` to the row emitted at
        *row*."""
        fields = self._rows[row]
        fields[_EXTRA_DEPS] += ((seq, latency),)

    # -- results -----------------------------------------------------------
    @property
    def rows(self):
        """The stream as DynInst objects, as the object engine times
        it (one recording walk per read)."""
        return _walk(self._rows, False, self.dataflow_latency, True)[3]

    def finish(self):
        """``(timed, events)``: the stream in the form the timing engine
        takes and its :class:`~repro.energy.mcpat.EnergyEvents`.

        The one place that picks the form: a :class:`LoweredStream`
        when the kernel loads, else the stream's DynInst rows
        (:attr:`rows`).  A stream whose columns cannot be packed (a
        non-integer latency, say from a custom BSA) also takes its
        rows, which the object engine times exactly.
        """
        lower = kernel_available()
        columns, accel_tags, events, recorded = _walk(
            self._rows, lower, self.dataflow_latency, not lower)
        if not lower:
            return recorded, events
        try:
            return LoweredStream(columns, accel_tags), events
        except LoweringError:
            return self.rows, events


def _walk(rows, lower, forward, record):
    """The one pass over a stream's rows, and the reference for both
    per-instruction rules: lowering and energy-event counting (the C
    offload and :func:`baseline_from_columns` are checked against it).

    *rows* holds DynInst objects and emitted field lists
    (:class:`StreamBuilder`).  Returns ``(columns, accel_tags, events,
    recorded)``: the kernel's columns in :attr:`LoweredStream.FIELDS`
    order (None unless *lower*), the accelerator tags in first-use
    order, the stream's :class:`~repro.energy.mcpat.EnergyEvents`,
    charged in stream order so that pricing them equals pricing one
    instruction at a time, and the rows as DynInst objects (None unless
    *record*).  *forward* is the dataflow latency (see
    :class:`StreamBuilder`).
    """
    components = {}
    regfile = []
    regfile_append = regfile.append
    core_insts = branches = core_mem = 0
    l1d_pj = L1D_SRAM.access_energy_pj
    l2_pj = L2_SRAM.access_energy_pj
    # accel tag -> (tag id, op, cfu and network component names, op
    # and network pJ); insertion order is the kernel's tag order.
    accel_charges = {}
    recorded = [] if record else None
    seqpos = {}
    lat = []
    occ = []
    tab = []
    is_st = []
    memdep = []
    dep_ptr = [0]
    dep_idx = []
    extra_ptr = [0]
    extra_idx = []
    extra_lat = []
    mispred = []
    icache = []
    accel_tag = []
    seqpos_get = seqpos.get
    lat_append = lat.append
    occ_append = occ.append
    tab_append = tab.append
    is_st_append = is_st.append
    memdep_append = memdep.append
    dep_ptr_append = dep_ptr.append
    dep_idx_append = dep_idx.append
    extra_ptr_append = extra_ptr.append
    extra_idx_append = extra_idx.append
    extra_lat_append = extra_lat.append
    mispred_append = mispred.append
    icache_append = icache.append
    accel_tag_append = accel_tag.append
    for i, inst in enumerate(rows):
        if inst.__class__ is list:
            (seq, static, opcode, src_deps, mem_dep, mem_addr, mem_lat,
             mem_level, taken, mispredicted, icache_lat, accel, extra_deps,
             lat_override, vector_width) = inst
        else:
            opcode = inst.opcode
            accel = inst.accel
            src_deps = inst.src_deps
            extra_deps = inst.extra_deps
            mem_addr = inst.mem_addr
            mem_level = inst.mem_level
            static = inst.static
            vector_width = inst.vector_width
            if lower:
                seq = inst.seq
                mem_dep = inst.mem_dep
                mem_lat = inst.mem_lat
                mispredicted = inst.mispredicted
                icache_lat = inst.icache_lat
                lat_override = inst.lat_override
        mem = mem_addr is not None
        if accel is not None:
            charges = accel_charges.get(accel)
            if charges is None:
                charges = accel_charges[accel] = (
                    len(accel_charges), f"{accel}_op", f"{accel}_cfu",
                    f"{accel}_net", _ACCEL_OP_PJ.get(accel, 4.0),
                    _ACCEL_NETWORK_PJ.get(accel, 2.0))
            if forward and src_deps \
                    and max(src_deps) >= SYNTHESIZED_SEQ_BASE:
                # Fabric forwarding: a dep on a synthesized producer
                # becomes an edge charging *forward* cycles, after the
                # row's own edges.
                real = []
                edges = list(extra_deps)
                for dep in src_deps:
                    if dep < SYNTHESIZED_SEQ_BASE:
                        real.append(dep)
                    else:
                        edges.append((dep, forward))
                src_deps = tuple(real)
                extra_deps = tuple(edges)
                if record and inst.__class__ is not list:
                    inst = inst.clone(src_deps=src_deps,
                                      extra_deps=extra_deps)
        if record:
            recorded.append(inst if inst.__class__ is not list else DynInst(
                seq, static, opcode, src_deps, mem_dep, mem_addr, mem_lat,
                mem_level, taken, mispredicted, icache_lat, accel,
                extra_deps, lat_override, vector_width))
        if lower:
            # Inlined DynInst.latency (override -> observed memory
            # latency -> nominal FU latency).
            latency = lat_override
            if latency is None:
                latency = mem_lat if mem and mem_lat else opcode.latency
            lat_append(latency)
            occ_append(latency if opcode.unpipelined else 1)
            tab_append(PORT_TABLE if mem else opcode.class_id)
            is_st_append(opcode.is_store)
            memdep_append(seqpos_get(mem_dep, -1) if mem_dep is not None
                          else -1)
            for dep in src_deps:
                # Live-in producers resolve to start_time, which can
                # never exceed the running ready time: drop them.
                pos = seqpos_get(dep, -1)
                if pos >= 0:
                    dep_idx_append(pos)
            dep_ptr_append(len(dep_idx))
            for dep, extra in extra_deps:
                # Live-in extra deps still charge latency on top of
                # start_time, so they are kept with position -1.
                extra_idx_append(seqpos_get(dep, -1))
                extra_lat_append(extra)
            extra_ptr_append(len(extra_idx))
            mispred_append(1 if mispredicted else 0)
            icache_append(icache_lat)
            accel_tag_append(-1 if accel is None else charges[0])
            seqpos[seq] = i
        if accel is not None:
            # ---- accelerator events --------------------------------
            _, op_name, cfu_name, net_name, op_pj, net_pj = charges
            if opcode is _CFU:
                name = cfu_name
                picojoules = op_pj + _CFU_EXTRA_OP_PJ \
                    * (max(vector_width, 1) - 1)
            elif opcode is _CFG:
                name, picojoules = "accel_config", _CONFIG_PJ
            else:
                name, picojoules = op_name, op_pj
            components[name] = components.get(name, 0.0) + picojoules
            components[net_name] = components.get(net_name, 0.0) \
                + net_pj
            if mem:
                l1d = l1d_pj
        else:
            # ---- core pipeline events, in charging order -----------
            category = 2 * len(src_deps) + (
                static is not None and static.dest is not None)
            regfile_append(category)
            if not core_insts:
                components.update(dict.fromkeys(_FRONTEND))
                if category:
                    components["regfile"] = None
                components.update(dict.fromkeys(_BACKEND))
            elif category and "regfile" not in components:
                components["regfile"] = None
            core_insts += 1
            picojoules = _FU_PJ_BY_CLASS[opcode.class_id]
            if vector_width > 1 or opcode.is_vector:
                name = "simd_fu"
                picojoules = picojoules * max(vector_width, 1) \
                    * _VECTOR_LANE_FACTOR
            else:
                name = "fu"
            if picojoules:
                components[name] = components.get(name, 0.0) + picojoules
            if opcode is _BR:
                branches += 1
                components.setdefault("bpred")
            elif opcode is _SEND or opcode is _RECV:
                components["accel_comm"] = components.get(
                    "accel_comm", 0.0) + _SEND_RECV_PJ
            elif opcode is _CFG:
                components["accel_config"] = components.get(
                    "accel_config", 0.0) + _CONFIG_PJ
            if mem:
                core_mem += 1
                components.setdefault("lsq")
                l1d = l1d_pj * (1 + 0.3 * (max(vector_width, 1) - 1))
        if mem:
            components["l1d"] = components.get("l1d", 0.0) + l1d
            if mem_level == "l2" or mem_level == "dram":
                components["l2"] = components.get("l2", 0.0) + l2_pj
            if mem_level == "dram":
                components["dram"] = components.get("dram", 0.0) \
                    + DRAM_ACCESS_PJ
            if accel == "trace_p" and opcode is _ST:
                components["store_buffer"] = components.get(
                    "store_buffer", 0.0) + _STORE_BUFFER_PJ
    counts = dict.fromkeys(_FRONTEND + _BACKEND, core_insts)
    counts["bpred"] = branches
    counts["lsq"] = core_mem
    columns = ([tag >= 0 for tag in accel_tag], lat, occ, tab,
               [table == PORT_TABLE for table in tab], is_st, memdep,
               dep_ptr, dep_idx, extra_ptr, extra_idx, extra_lat, mispred,
               icache, accel_tag) if lower else None
    return (columns, tuple(accel_charges),
            EnergyEvents(components, counts, regfile), recorded)


def stream_events(stream):
    """Core-independent energy events of *stream* (a DynInst list),
    without lowering."""
    return _walk(stream, False, 0, False)[2]


def lower_stream(stream):
    """Lower *stream* (a DynInst list) into a :class:`LoweredStream`,
    whether or not the kernel loads.

    Raises :class:`LoweringError` when the stream is not
    int64-lowerable.
    """
    columns, accel_tags, _, _ = _walk(stream, True, 0, False)
    return LoweredStream(columns, accel_tags)


# ---------------------------------------------------------------------------
# Dataflow offload on the lowered trace.

_OPCODES = tuple(Opcode)

#: Per-opcode facts the offload entry point reads, by ``Opcode.op_id``:
#: flag bits (the C ``F_*`` names), FU table id and FU op pJ.
_OP_FLAGS = array.array("q", (
    (opcode.is_compute or opcode in (Opcode.MOV, Opcode.LI))
    | (opcode is Opcode.BR) << 1 | (opcode is Opcode.JMP) << 2
    | opcode.is_store << 3 | (opcode is Opcode.ST) << 4
    | opcode.is_vector << 5 | (opcode in (Opcode.SEND, Opcode.RECV)) << 6
    | (opcode is Opcode.CFG) << 7 | opcode.unpipelined << 8
    for opcode in _OPCODES))
_OP_TABLE_IDS = array.array("q", (op.class_id for op in _OPCODES))
_OP_FU_PJ = array.array("d", (_FU_PJ_BY_CLASS[op.class_id]
                              for op in _OPCODES))
_OP_ADDRS = tuple(map(_addr_of, (_OP_FLAGS, _OP_TABLE_IDS, _OP_FU_PJ)))

#: One int64 zero, repeated into the offload's output buffers, and
#: one -1.
_ZERO = array.array("q", [0])
_MINUS_ONE = array.array("q", [-1])

#: Energy components of the offload's ``K_*`` ids, in id order; the
#: first ten are priced per core.
_OFFLOAD_COMPONENTS = _FRONTEND + ("regfile",) + _BACKEND + (
    "bpred", "lsq", "fu", "simd_fu", "accel_comm", "accel_config", "l1d",
    "l2", "dram", "store_buffer")
_PER_CORE_COMPONENTS = 10
#: ... and the accelerator's op, compound-op and network components.
_N_COMPONENTS = len(_OFFLOAD_COMPONENTS) + 3

#: Span modes of the offload entry point.
SPAN_REPLAY, SPAN_ON_TRACE, SPAN_NS_DF = 0, 1, 2


class TraceFacts:
    """An interpreter trace lowered for the dataflow offload.

    Holds the trace's :class:`LoweredStream` and four per-row fact
    columns beside it: static-instruction index (``uid``, -1 without a
    static), opcode id (``Opcode.op_id``), regfile category (``2 *
    source deps + destination write``) and memory level (0-3 for none,
    ``l1``, ``l2``, ``dram``).  The offload reads a row's seq as its
    position, so :func:`trace_facts` builds one only for a trace whose
    seqs are its positions and whose rows carry no transform fields.
    """

    __slots__ = ("lowered", "addrs", "_addrs", "_columns", "_strays")

    def __init__(self, lowered, columns):
        self.lowered = lowered
        self._columns = columns
        # The C ``cols`` order.
        self._addrs = array.array("q", map(_addr_of, (
            lowered.lat, lowered.is_mem, lowered.memdep, lowered.dep_ptr,
            lowered.dep_idx, lowered.mispred, lowered.icache, *columns)))
        self.addrs = _addr_of(self._addrs)
        # Every static instruction a stray: every row stays on the core.
        n_statics = max(columns[0], default=-1) + 1
        self._strays = OffloadTable(
            array.array("q", (-2, 0, 0)) * n_statics, 0, None, 0)

    def span_events(self, spans):
        """:class:`~repro.energy.mcpat.EnergyEvents` of the trace rows in
        *spans* (non-empty ``(start, end)`` pairs in trace order), as
        :func:`stream_events` over those rows gives them: one offload
        call with every static instruction a stray, so every row stays
        on the core and is charged in row order."""
        dep_ptr = self.lowered.dep_ptr
        flat = []
        rows = deps = 0
        for start, end in spans:
            flat += (start, end, SPAN_ON_TRACE)
            rows += end - start
            deps += dep_ptr[end] - dep_ptr[start]
        return self._strays._offload(
            self, (spans[0][0], spans[-1][1]), flat, 0, rows, deps, 0)[1]


def trace_facts(trace, lowered, events):
    """:class:`TraceFacts` of *trace*, lowered as *lowered* with energy
    events *events* (one :meth:`StreamBuilder.finish` over it), or None
    when the offload cannot read it: a row whose seq is not its
    position, or one already transformed (an accelerator tag, a model
    edge, a vector width)."""
    if lowered.accel_tags or len(lowered.extra_idx) \
            or any(inst.seq != index or inst.vector_width != 1
                   for index, inst in enumerate(trace)):
        return None
    statics = [inst.static for inst in trace]
    columns = (
        _int_array([-1 if static is None else static.uid
                    for static in statics]),
        _int_array([inst.opcode.op_id for inst in trace]),
        _int_array(events.regfile),
        _int_array([MEM_LEVEL_CODES.get(inst.mem_level, 1)
                    for inst in trace]))
    return TraceFacts(lowered, columns)


def baseline_from_columns(trace):
    """``(lowered, events, facts)`` of an interpreter *trace*, packed
    from the columns the interpreter filled as it executed
    (:class:`~repro.sim.trace.TraceColumns`): its
    :class:`LoweredStream`, :class:`~repro.energy.mcpat.EnergyEvents`
    and :class:`TraceFacts`, equal to what :meth:`StreamBuilder.finish`
    and :func:`trace_facts` give over its rows, with no walk over them.

    The per-static columns (FU table, memory and store flags,
    occupancy, opcode id) are gathered from per-static tables by uid,
    and the events come from one all-stray offload call over the whole
    trace (:meth:`TraceFacts.span_events`).  The trace's columns are
    dropped, packed or not.  Returns None, and the caller walks the
    rows, when the trace carries no columns (one not built by the
    interpreter, or already packed), the kernel does not load or the
    columns cannot be packed (a non-integer latency from a custom cache
    hierarchy).
    """
    columns = getattr(trace, "columns", None)
    if columns is None:
        return None
    trace.columns = None
    if not kernel_available():
        return None
    uids = columns.uid
    n = len(uids)
    opcodes = [static.opcode
               for static in trace.program.static_instructions]
    is_mem = [opcode is _LD or opcode is _ST for opcode in opcodes]
    try:
        lowered = LoweredStream.from_buffers((
            _ZERO * n,
            _int_array(columns.lat),
            _gather([opcode.latency if opcode.unpipelined else 1
                     for opcode in opcodes], uids),
            _gather([PORT_TABLE if mem else opcode.class_id
                     for opcode, mem in zip(opcodes, is_mem)], uids),
            _gather(is_mem, uids),
            _gather([opcode.is_store for opcode in opcodes], uids),
            _int_array(columns.memdep),
            _int_array(columns.dep_ptr),
            _int_array(columns.dep_idx),
            _ZERO * (n + 1),
            _ZERO[:0],
            _ZERO[:0],
            _int_array(columns.mispred),
            _int_array(columns.icache),
            _MINUS_ONE * n), ())
    except struct.error:
        return None
    facts = TraceFacts(lowered, (
        _int_array(uids),
        _gather([opcode.op_id for opcode in opcodes], uids),
        _int_array(columns.regfile),
        _int_array(columns.level)))
    return lowered, facts.span_events([(0, n)]), facts


def _gather(table, uids):
    """int64 buffer of *table*'s entry for each uid in *uids*."""
    return _int_array(itemgetter(*uids)(table) if len(uids) > 1
                      else [table[uid] for uid in uids])


class OffloadTable:
    """One dataflow plan (NS-DF, Trace-P) ready for the C offload:
    *table* holds three ints per static instruction, its CFU chain (-2
    outside the loop, -1 unscheduled), position and chain length; the
    rest are the model's constants.  :meth:`run` transforms one
    interval of a lowered trace."""

    __slots__ = ("table", "accel_tags", "_latencies", "_constants",
                 "_pj", "_names")

    def __init__(self, table, n_chains, accel, forward, switch_latency=0,
                 mispec_penalty=0):
        self.table = array.array("q", table)
        self.accel_tags = (accel,)
        # The C cfg around the per-interval start, end, span count and
        # seq base.
        self._latencies = (forward, switch_latency, mispec_penalty)
        self._constants = (n_chains, PORT_TABLE, accel == "trace_p",
                           _CFU.op_id, Opcode.SWITCH.op_id)
        self._pj = array.array("d", (
            _ACCEL_OP_PJ.get(accel, 4.0), _ACCEL_NETWORK_PJ.get(accel, 2.0),
            _CFU_EXTRA_OP_PJ, L1D_SRAM.access_energy_pj,
            L2_SRAM.access_energy_pj, DRAM_ACCESS_PJ, _STORE_BUFFER_PJ,
            _SEND_RECV_PJ, _CONFIG_PJ, _VECTOR_LANE_FACTOR))
        self._names = _OFFLOAD_COMPONENTS + (
            f"{accel}_op", f"{accel}_cfu", f"{accel}_net")

    def run(self, facts, interval, spans, seq_base):
        """``(LoweredStream, EnergyEvents, next seq)`` of one interval
        of *facts* (:class:`TraceFacts`), exactly what
        :func:`~repro.accel.base.offload_dataflow` into a
        :class:`StreamBuilder` and :meth:`StreamBuilder.finish` give.

        *spans* is a flat ``(start, end, mode)`` sequence over
        *interval* (``SPAN_*`` modes); synthesized seqs start at
        *seq_base*.
        """
        start, end = interval
        rows = end - start
        deps = facts.lowered.dep_ptr[end] - facts.lowered.dep_ptr[start]
        return self._offload(facts, interval, spans, seq_base, rows, deps,
                             rows + deps)

    def _offload(self, facts, interval, spans, seq_base, rows, deps,
                 edges):
        """:meth:`run`, with output room for at most *rows* rows,
        *deps* deps and *edges* extra edges."""
        start, end = interval
        buffers = [_ZERO * size for size in (
            rows, rows, rows, rows, rows, rows, rows, rows + 1, deps,
            rows + 1, edges, edges, rows, rows, rows, rows)]
        outs = array.array("q", map(_addr_of, buffers))
        cfg = array.array("q", (start, end, len(spans) // 3,
                                *self._latencies, seq_base,
                                *self._constants))
        spans = array.array("q", spans)
        result = _ZERO * 8
        order = _ZERO * _N_COMPONENTS
        values = array.array("d", bytes(8 * _N_COMPONENTS))
        status = _offload(
            _addr_of(cfg), facts.addrs, *_OP_ADDRS, _addr_of(self._pj),
            _addr_of(self.table), _addr_of(spans), _addr_of(outs),
            _addr_of(result), _addr_of(order), _addr_of(values))
        if status == -2:
            raise ValueError(f"a span lies outside interval {interval}")
        if status < 0:
            raise MemoryError("dataflow offload allocation failed")
        n_rows, n_deps, n_extra, next_seq, core_insts, branches, \
            core_mem, n_components = result
        lengths = (n_rows, n_rows, n_rows, n_rows, n_rows, n_rows, n_rows,
                   n_rows + 1, n_deps, n_rows + 1, n_extra, n_extra,
                   n_rows, n_rows, n_rows, core_insts)
        for buffer, length in zip(buffers, lengths):
            del buffer[length:]
        names = self._names
        components = {
            names[index]: None if index < _PER_CORE_COMPONENTS
            else values[index] for index in order[:n_components]}
        counts = dict.fromkeys(_FRONTEND + _BACKEND, core_insts)
        counts["bpred"] = branches
        counts["lsq"] = core_mem
        accel_tags = self.accel_tags if core_insts < n_rows else ()
        return (LoweredStream.from_buffers(buffers[:15], accel_tags),
                EnergyEvents(components, counts, buffers[15].tolist()),
                next_seq)


# ---------------------------------------------------------------------------
# Compiled kernel.

#: The whole inner loop as C.  Embedded as a string (rather than a .c
#: file) so the ``tdg`` package source digest in
#: :func:`repro.dse.cache.engine_version_hash` covers it — editing the
#: kernel invalidates every cache entry like any other modeling change.
_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

#include <string.h>

#define WINDOW 65536
#define MASK 65535
#define MAX_TABLES 64

typedef int64_t i64;

typedef struct { i64 *mark; i64 *cnt; i64 cap; i64 base; } table_t;

/* Table windows are thread-local statics reused across runs: a slot
 * is valid only when its mark equals cycle + base, where base is a
 * per-run epoch — so stale entries from previous runs read as free
 * without any clearing.  Epochs step by 2^40 (far above any
 * realizable cycle count); after ~4M runs the buffers are memset once
 * and the epoch restarts, keeping marks clear of overflow. */
#define EPOCH_STEP ((i64)1 << 40)
#define EPOCH_LIMIT ((i64)1 << 62)
static __thread i64 *g_marks = NULL;
static __thread i64 *g_cnts = NULL;
static __thread i64 g_epoch = 0;

static i64 reserve1(table_t *t, i64 ready) {
    const i64 base = t->base;
    i64 cy = ready, ix = cy & MASK;
    while (t->mark[ix] == cy + base && t->cnt[ix] >= t->cap) {
        cy++; ix = cy & MASK;
    }
    if (t->mark[ix] == cy + base) t->cnt[ix]++;
    else { t->mark[ix] = cy + base; t->cnt[ix] = 1; }
    return cy;
}

static i64 reserve_n(table_t *t, i64 ready, i64 occ) {
    const i64 base = t->base;
    i64 cy = ready;
    for (;;) {
        int ok = 1;
        for (i64 k = 0; k < occ; k++) {
            i64 ix = (cy + k) & MASK;
            if (t->mark[ix] == cy + k + base && t->cnt[ix] >= t->cap) {
                ok = 0; break;
            }
        }
        if (ok) break;
        cy++;
    }
    for (i64 k = 0; k < occ; k++) {
        i64 ix = (cy + k) & MASK;
        if (t->mark[ix] == cy + k + base) t->cnt[ix]++;
        else { t->mark[ix] = cy + k + base; t->cnt[ix] = 1; }
    }
    return cy;
}

/* Min-heap over i64 (IQ slot release times). */
static void heap_push(i64 *h, i64 *len, i64 v) {
    i64 i = (*len)++;
    h[i] = v;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (h[p] <= h[i]) break;
        i64 t = h[p]; h[p] = h[i]; h[i] = t;
        i = p;
    }
}

static i64 heap_pop(i64 *h, i64 *len) {
    i64 top = h[0];
    i64 last = h[--(*len)];
    i64 i = 0;
    h[0] = last;
    for (;;) {
        i64 l = 2 * i + 1, r = l + 1, m = i;
        if (l < *len && h[l] < h[m]) m = l;
        if (r < *len && h[r] < h[m]) m = r;
        if (m == i) break;
        i64 t = h[m]; h[m] = h[i]; h[i] = t;
        i = m;
    }
    return top;
}

/* cfg: [n, width, in_order, decode_depth, rob_size, iq_size(-1=none),
         branch_penalty, start_time, collect_commits, n_tables,
         port_table, n_accel_tags, have_accel]
   Returns final_time - start_time, or -1 on allocation failure. */
i64 repro_fastpath_run(
    const i64 *cfg, const i64 *caps,
    const i64 *is_accel, const i64 *lat, const i64 *occ,
    const i64 *tabid, const i64 *is_mem, const i64 *is_st,
    const i64 *memdep, const i64 *dep_ptr, const i64 *dep_idx,
    const i64 *extra_ptr, const i64 *extra_idx, const i64 *extra_lat,
    const i64 *mispred, const i64 *icache, const i64 *accel_tag,
    const i64 *accel_caps, const i64 *accel_windows,
    i64 *hist_out, i64 *commits_out)
{
    const i64 n = cfg[0], width = cfg[1], in_order = cfg[2];
    const i64 decode_depth = cfg[3], rob_size = cfg[4];
    const i64 iq_size = cfg[5], branch_penalty = cfg[6];
    const i64 start_time = cfg[7], collect = cfg[8];
    const i64 n_tables = cfg[9], port_table = cfg[10];
    const i64 n_tags = cfg[11], have_accel = cfg[12];
    const i64 issue_table = n_tables;
    const i64 total_tables = n_tables + 1 + n_tags;

    i64 *fetch_t = malloc((size_t)(n ? n : 1) * sizeof(i64));
    i64 *disp_t = malloc((size_t)(n ? n : 1) * sizeof(i64));
    i64 *commit_t = malloc((size_t)(n ? n : 1) * sizeof(i64));
    i64 *complete = malloc((size_t)(n ? n : 1) * sizeof(i64));
    i64 *iq = NULL, iq_len = 0;
    i64 *rings = NULL, *ring_off = NULL, *ring_cnt = NULL;
    table_t tabs[MAX_TABLES];
    i64 result = -1;

    if (!fetch_t || !disp_t || !commit_t || !complete
            || total_tables > MAX_TABLES)
        goto done;
    if (!g_marks) {
        g_marks = calloc((size_t)MAX_TABLES * WINDOW, sizeof(i64));
        g_cnts = calloc((size_t)MAX_TABLES * WINDOW, sizeof(i64));
        if (!g_marks || !g_cnts) goto done;
    }
    g_epoch += EPOCH_STEP;
    if (g_epoch >= EPOCH_LIMIT) {
        memset(g_marks, 0,
               (size_t)MAX_TABLES * WINDOW * sizeof(i64));
        g_epoch = EPOCH_STEP;
    }
    i64 *marks = g_marks;
    i64 *cnts = g_cnts;
    if (!in_order && iq_size > 0) {
        iq = malloc((size_t)(iq_size + 2) * sizeof(i64));
        if (!iq) goto done;
    }
    if (n_tags > 0) {
        i64 total = 0;
        ring_off = malloc((size_t)(n_tags + 1) * sizeof(i64));
        ring_cnt = calloc((size_t)n_tags, sizeof(i64));
        if (!ring_off || !ring_cnt) goto done;
        for (i64 t = 0; t < n_tags; t++) {
            ring_off[t] = total;
            total += accel_windows[t] > 0 ? accel_windows[t] : 0;
        }
        ring_off[n_tags] = total;
        rings = malloc((size_t)(total ? total : 1) * sizeof(i64));
        if (!rings) goto done;
    }
    for (i64 t = 0; t < total_tables; t++) {
        tabs[t].mark = marks + t * WINDOW;
        tabs[t].cnt = cnts + t * WINDOW;
        tabs[t].base = g_epoch + 1;
        if (t < n_tables) tabs[t].cap = caps[t];
        else if (t == issue_table) tabs[t].cap = width;
        else tabs[t].cap = accel_caps[t - n_tables - 1];
    }

    i64 hist[8] = {0};
    i64 redirect = 0, last_e = start_time;
    i64 n_core = 0, final_time = start_time;

    for (i64 i = 0; i < n; i++) {
        if (is_accel[i]) {
            i64 ready = start_time;
            i64 kind = -1;
            for (i64 k = dep_ptr[i]; k < dep_ptr[i + 1]; k++) {
                i64 t = complete[dep_idx[k]];
                if (t > ready) { ready = t; kind = 1; }
            }
            if (memdep[i] >= 0) {
                i64 t = complete[memdep[i]];
                if (t > ready) { ready = t; kind = 2; }
            }
            for (i64 k = extra_ptr[i]; k < extra_ptr[i + 1]; k++) {
                i64 p = extra_idx[k];
                i64 t = (p >= 0 ? complete[p] : start_time)
                        + extra_lat[k];
                if (t > ready) { ready = t; kind = 3; }
            }
            i64 start = ready;
            i64 tag = accel_tag[i];
            if (have_accel && tag >= 0) {
                i64 w = accel_windows[tag];
                if (w > 0 && ring_cnt[tag] >= w) {
                    i64 slot = rings[ring_off[tag]
                                     + ring_cnt[tag] % w];
                    if (slot > start) { start = slot; kind = 7; }
                }
                if (accel_caps[tag] >= 0) {
                    start = reserve1(&tabs[n_tables + 1 + tag], start);
                    if (start > ready) kind = 7;
                }
            }
            if (is_mem[i]) {
                i64 ps = reserve1(&tabs[port_table], start);
                if (ps > start) { start = ps; kind = 5; }
            }
            i64 comp = start + lat[i];
            complete[i] = comp;
            if (have_accel && tag >= 0 && accel_windows[tag] > 0) {
                i64 w = accel_windows[tag];
                rings[ring_off[tag] + ring_cnt[tag] % w] = comp;
                ring_cnt[tag]++;
            }
            if (comp > final_time) final_time = comp;
            if (kind >= 0) hist[kind]++;
            if (collect) commits_out[i] = comp;
            continue;
        }

        /* ---- core-side instruction ---- */
        i64 f = n_core ? fetch_t[n_core - 1] : start_time;
        if (n_core >= width) {
            i64 bw = fetch_t[n_core - width] + 1;
            if (bw > f) f = bw;
        }
        if (redirect > f) f = redirect;
        if (icache[i]) f += icache[i];
        fetch_t[n_core] = f;

        i64 d = f + decode_depth;
        if (n_core) {
            i64 pd = disp_t[n_core - 1];
            if (pd > d) d = pd;
            if (n_core >= width) {
                i64 bw = disp_t[n_core - width] + 1;
                if (bw > d) d = bw;
            }
        }
        if (n_core >= rob_size) {
            i64 rob = commit_t[n_core - rob_size] + 1;
            if (rob > d) d = rob;
        }
        if (!in_order && iq_size > 0 && iq_len >= iq_size) {
            i64 sf = heap_pop(iq, &iq_len) + 1;
            if (sf > d) d = sf;
        }
        disp_t[n_core] = d;

        i64 ready = d + 1;
        i64 bind = 0;
        for (i64 k = dep_ptr[i]; k < dep_ptr[i + 1]; k++) {
            i64 t = complete[dep_idx[k]];
            if (t > ready) { ready = t; bind = 1; }
        }
        if (memdep[i] >= 0 && !is_st[i]) {
            i64 t = complete[memdep[i]];
            if (t > ready) { ready = t; bind = 2; }
        }
        for (i64 k = extra_ptr[i]; k < extra_ptr[i + 1]; k++) {
            i64 p = extra_idx[k];
            i64 t = (p >= 0 ? complete[p] : start_time) + extra_lat[k];
            if (t > ready) { ready = t; bind = 3; }
        }
        if (in_order && last_e > ready) { ready = last_e; bind = 4; }

        i64 slot = reserve1(&tabs[issue_table], ready);
        if (slot > ready) { ready = slot; bind = 0; }
        i64 o = occ[i];
        i64 issue = o == 1 ? reserve1(&tabs[tabid[i]], ready)
                           : reserve_n(&tabs[tabid[i]], ready, o);
        if (issue > ready) bind = tabid[i] == port_table ? 5 : 6;
        if (!in_order && iq_size > 0)
            heap_push(iq, &iq_len, issue);
        last_e = issue;

        i64 comp = issue + lat[i];
        complete[i] = comp;

        i64 c = comp + 1;
        if (n_core) {
            i64 pc = commit_t[n_core - 1];
            if (pc > c) c = pc;
            if (n_core >= width) {
                i64 bw = commit_t[n_core - width] + 1;
                if (bw > c) c = bw;
            }
        }
        commit_t[n_core] = c;
        if (collect) commits_out[i] = c;
        if (c > final_time) final_time = c;

        if (mispred[i]) {
            i64 pen = comp + branch_penalty;
            if (pen > redirect) redirect = pen;
        }
        hist[bind]++;
        n_core++;
    }

    for (int k = 0; k < 8; k++) hist_out[k] = hist[k];
    result = final_time - start_time;

done:
    free(fetch_t); free(disp_t);
    free(commit_t); free(complete); free(iq);
    free(rings); free(ring_off); free(ring_cnt);
    return result;
}

/* ---- Dataflow offload (NS-DF, Trace-P) ------------------------------
 * offload_dataflow() plus StreamBuilder.finish() over one interval of a
 * lowered interpreter trace, whose seqs are its row positions.  Phase 1
 * rewrites the interval's trace rows into output rows; phase 2 walks
 * them like _walk(), for the kernel's columns and the energy events.
 * Built unoptimized: it runs in a fraction of its caller's Python time,
 * and optimizing it would double the kernel's build time. */
#pragma GCC optimize ("O0")

#define SYNTH_BASE ((i64)1 << 40)

/* Per-opcode flags (op_flags[opcode id]). */
enum { F_FUSE = 1, F_BR = 2, F_JMP = 4, F_STORE = 8, F_ST = 16,
       F_VECTOR = 32, F_SENDRECV = 64, F_CFG = 128, F_UNPIPE = 256 };

/* Energy components; the first ten are priced per core (value None). */
enum { K_FETCH, K_DECODE, K_RENAME, K_IQ, K_ROB, K_REGFILE, K_BYPASS,
       K_COMMIT, K_BPRED, K_LSQ, K_FU, K_SIMD_FU, K_ACCEL_COMM,
       K_ACCEL_CONFIG, K_L1D, K_L2, K_DRAM, K_STORE_BUFFER, K_OP, K_CFU,
       K_NET, N_COMPONENTS };

/* Span modes. */
enum { M_REPLAY = 0, M_ON_TRACE = 1, M_NS_DF = 2 };

typedef struct {
    /* trace columns, indexed by trace position (= seq) */
    const i64 *lat, *is_mem, *memdep, *dep_ptr, *dep_idx, *mispred,
              *icache, *sidx, *opid, *category, *level;
    const i64 *op_flags;
    const i64 *table;       /* 3 per static: chain (-2 stray, -1 none),
                               position, length */
    i64 start, cfu_op, switch_op;
    i64 *map;               /* trace seq - start -> renamed seq, or -1 */
    i64 *chain_row, *chain_seq, *chain_next, *chain_epoch, epoch;
    i64 next_seq;
    /* output rows */
    i64 n, *seq, *src, *op, *accel, *lat_o, *vw, *mispred_o, *icache_o,
        *memdep_o, *edge_seq, *edge_lat, *dhead, *dtail, *ndeps;
    i64 nd, *d_seq, *d_next;
} offload_t;

static i64 map_dep(const offload_t *s, i64 dep) {
    if (dep >= s->start && s->map[dep - s->start] >= 0)
        return s->map[dep - s->start];
    return dep;
}

static void push_dep(offload_t *s, i64 row, i64 dep) {
    i64 d = s->nd++;
    s->d_seq[d] = dep;
    s->d_next[d] = -1;
    if (s->dtail[row] >= 0) s->d_next[s->dtail[row]] = d;
    else s->dhead[row] = d;
    s->dtail[row] = d;
    s->ndeps[row]++;
}

/* A new output row for trace row i, with its deps renamed. */
static i64 new_row(offload_t *s, i64 i, i64 seq, i64 op, i64 accel,
                   i64 edge_seq, i64 edge_lat) {
    i64 r = s->n++;
    s->seq[r] = seq; s->src[r] = i; s->op[r] = op; s->accel[r] = accel;
    s->lat_o[r] = s->lat[i]; s->vw[r] = 1;
    s->mispred_o[r] = s->mispred[i]; s->icache_o[r] = s->icache[i];
    s->memdep_o[r] = s->memdep[i] >= 0 ? map_dep(s, s->memdep[i]) : -1;
    s->edge_seq[r] = edge_seq; s->edge_lat[r] = edge_lat;
    s->dhead[r] = s->dtail[r] = -1; s->ndeps[r] = 0;
    for (i64 k = s->dep_ptr[i]; k < s->dep_ptr[i + 1]; k++)
        push_dep(s, r, map_dep(s, s->dep_idx[k]));
    return r;
}

/* remap(): trace row i stays on the core. */
static void keep_row(offload_t *s, i64 i, i64 edge_seq, i64 edge_lat) {
    new_row(s, i, i, s->opid[i], 0, edge_seq, edge_lat);
}

/* offload_dataflow(): returns the seq of the accelerator row added, or
   -1 (stray, dropped, folded or kept on the core). */
static i64 offload(offload_t *s, i64 i, i64 edge_seq, i64 edge_lat) {
    i64 sx = s->sidx[i];
    const i64 *slot = sx >= 0 ? s->table + 3 * sx : NULL;
    if (!slot || slot[0] == -2) {
        keep_row(s, i, -1, 0);
        return -1;
    }
    i64 flags = s->op_flags[s->opid[i]], seq, r;
    if (flags & F_JMP) return -1;
    if (flags & F_BR) {
        seq = s->next_seq++;
        r = new_row(s, i, seq, s->switch_op, 1, edge_seq, edge_lat);
        s->lat_o[r] = 1; s->mispred_o[r] = 0; s->icache_o[r] = 0;
        s->memdep_o[r] = s->memdep[i];
    } else if (s->is_mem[i]) {
        seq = s->next_seq++;
        r = new_row(s, i, seq, s->opid[i], 1, edge_seq, edge_lat);
        s->icache_o[r] = 0;
    } else if (flags & F_FUSE) {
        i64 chain = slot[0], pos = slot[1], len = slot[2];
        if (chain >= 0 && pos && s->chain_epoch[chain] == s->epoch
                && s->chain_next[chain] == pos) {
            /* StreamBuilder.fold: merge the deps the head lacks. */
            i64 head = s->chain_row[chain], hseq = s->chain_seq[chain];
            i64 before = s->ndeps[head];
            for (i64 k = s->dep_ptr[i]; k < s->dep_ptr[i + 1]; k++) {
                const i64 dep = map_dep(s, s->dep_idx[k]);
                i64 seen = dep == hseq, d = s->dhead[head];
                for (i64 m = 0; m < before && !seen; m++, d = s->d_next[d])
                    seen = s->d_seq[d] == dep;
                if (!seen) push_dep(s, head, dep);
            }
            s->lat_o[head] += s->lat[i];
            s->vw[head]++;
            if (pos + 1 < len) s->chain_next[chain] = pos + 1;
            else s->chain_epoch[chain] = -1;
            s->map[i - s->start] = hseq;
            return -1;
        }
        seq = s->next_seq++;
        r = new_row(s, i, seq, s->cfu_op, 1, edge_seq, edge_lat);
        s->mispred_o[r] = 0; s->icache_o[r] = 0;
        s->memdep_o[r] = s->memdep[i];
        if (chain >= 0 && len > 1 && !pos) {
            s->chain_epoch[chain] = s->epoch;
            s->chain_row[chain] = r; s->chain_seq[chain] = seq;
            s->chain_next[chain] = 1;
        }
    } else {
        keep_row(s, i, -1, 0);
        return -1;
    }
    s->map[i - s->start] = seq;
    return seq;
}

static i64 pos_of(i64 seq, i64 start, i64 end, const i64 *tpos,
                  i64 seq_base, i64 n_synth, const i64 *spos) {
    if (seq >= SYNTH_BASE) {
        i64 k = seq - seq_base;
        return k >= 0 && k < n_synth ? spos[k] : -1;
    }
    return seq >= start && seq < end ? tpos[seq - start] : -1;
}

#define CHARGE(k, pj) do { \
        if (!seen[k]) { seen[k] = 1; order[n_order++] = (k); } \
        vals[k] += (pj); } while (0)
#define TOUCH(k) do { \
        if (!seen[k]) { seen[k] = 1; order[n_order++] = (k); } } while (0)

/* cfg: [start, end, n_spans, forward, switch_latency, mispec_penalty,
         seq_base, n_chains, port_table, store_buffer, cfu_op, switch_op]
   cols: trace column addresses (lat, is_mem, memdep, dep_ptr, dep_idx,
         mispred, icache, static index, opcode id, regfile category,
         memory level 0-3 for none/l1/l2/dram)
   op_flags, op_class, fu_pj: per opcode id
   pj: [op, net, cfu extra op, l1d, l2, dram, store buffer, send/recv,
        config, vector lane factor]
   table: per static index (chain or -2 stray / -1 unscheduled,
          position, length)
   spans: n_spans x (start, end, mode)
   outs: output column addresses, LoweredStream.FIELDS order, then the
         core rows' regfile categories
   result: [rows, deps, extra edges, next seq, core insts, branches,
            core memory ops, components]; order: the components in
            first-charged order; vals: every component's pJ.
   Returns 0, -1 on allocation failure, or -2 for a span outside the
   interval. */
i64 repro_dataflow_offload(
    const i64 *cfg, const i64 *const *cols, const i64 *op_flags,
    const i64 *op_class, const double *fu_pj, const double *pj,
    const i64 *table, const i64 *spans, i64 *const *outs, i64 *result,
    i64 *order, double *vals)
{
    const i64 start = cfg[0], end = cfg[1], n_spans = cfg[2];
    const i64 forward = cfg[3], switch_lat = cfg[4], mispec = cfg[5];
    const i64 seq_base = cfg[6], n_chains = cfg[7], port_table = cfg[8];
    const i64 store_buffer = cfg[9];
    const i64 cap = end > start ? end - start : 1;
    const i64 n_dep_in = cols[3][end] - cols[3][start];
    const i64 dcap = n_dep_in ? n_dep_in : 1;
    const i64 ccap = n_chains ? n_chains : 1;
    offload_t s;
    i64 *scratch = malloc((size_t)(17 * cap + 2 * dcap + 4 * ccap)
                          * sizeof(i64));
    if (!scratch) return -1;
    memset(&s, 0, sizeof s);
    s.lat = cols[0]; s.is_mem = cols[1]; s.memdep = cols[2];
    s.dep_ptr = cols[3]; s.dep_idx = cols[4]; s.mispred = cols[5];
    s.icache = cols[6]; s.sidx = cols[7]; s.opid = cols[8];
    s.category = cols[9]; s.level = cols[10];
    s.op_flags = op_flags; s.table = table;
    s.start = start; s.cfu_op = cfg[10]; s.switch_op = cfg[11];
    s.next_seq = seq_base;
    i64 *p = scratch;
    i64 **rows[] = {&s.map, &s.seq, &s.src, &s.op, &s.accel, &s.lat_o,
                    &s.vw, &s.mispred_o, &s.icache_o, &s.memdep_o,
                    &s.edge_seq, &s.edge_lat, &s.dhead, &s.dtail,
                    &s.ndeps};
    for (int k = 0; k < 15; k++) { *rows[k] = p; p += cap; }
    i64 *tpos = p; p += cap;
    i64 *spos = p; p += cap;
    s.d_seq = p; p += dcap; s.d_next = p; p += dcap;
    s.chain_row = p; p += ccap; s.chain_seq = p; p += ccap;
    s.chain_next = p; p += ccap; s.chain_epoch = p;
    for (i64 k = 0; k < cap; k++) s.map[k] = tpos[k] = spos[k] = -1;
    for (i64 c = 0; c < n_chains; c++) s.chain_epoch[c] = -1;
    for (i64 sp = 0; sp < n_spans; sp++) {
        if (spans[3 * sp] < start || spans[3 * sp + 1] > end) {
            free(scratch);
            return -2;
        }
    }

    /* ---- phase 1: rewrite the interval's rows ---- */
    i64 ctrl_seq = -1, last_accel = -1, restart_seq = -1;
    for (i64 sp = 0; sp < n_spans; sp++) {
        const i64 lo = spans[3 * sp], hi = spans[3 * sp + 1];
        const i64 mode = spans[3 * sp + 2];
        if (mode == M_REPLAY) {
            /* A trace mispeculation replays on the core behind the
               flush penalty; the trace engine restarts after it. */
            if (hi <= lo) continue;
            for (i64 i = lo; i < hi; i++) {
                if (i == lo && last_accel >= 0)
                    keep_row(&s, i, last_accel, mispec);
                else
                    keep_row(&s, i, -1, 0);
            }
            restart_seq = hi - 1;
            continue;
        }
        s.epoch++;              /* compound ops start afresh */
        for (i64 i = lo; i < hi; i++) {
            i64 eseq = -1, elat = 0;
            if (mode == M_NS_DF) {
                /* Non-speculative: wait for the latest switch. */
                if (ctrl_seq >= 0) { eseq = ctrl_seq; elat = switch_lat; }
            } else if (restart_seq >= 0 && s.sidx[i] >= 0
                       && table[3 * s.sidx[i]] != -2) {
                eseq = restart_seq; elat = 2;
                restart_seq = -1;
            }
            const i64 seq = offload(&s, i, eseq, elat);
            if (seq < 0) continue;
            if (mode != M_NS_DF) last_accel = seq;
            else if (op_flags[s.opid[i]] & F_BR) ctrl_seq = seq;
        }
    }

    /* ---- phase 2: lower and count energy events, as _walk() ---- */
    i64 *o_accel = outs[0], *o_lat = outs[1], *o_occ = outs[2];
    i64 *o_tab = outs[3], *o_mem = outs[4], *o_store = outs[5];
    i64 *o_memdep = outs[6], *o_dep_ptr = outs[7], *o_dep_idx = outs[8];
    i64 *o_extra_ptr = outs[9], *o_extra_idx = outs[10];
    i64 *o_extra_lat = outs[11], *o_mispred = outs[12];
    i64 *o_icache = outs[13], *o_tag = outs[14], *o_regfile = outs[15];
    const double op_pj = pj[0], net_pj = pj[1], cfu_extra = pj[2];
    const double l1d_pj = pj[3], l2_pj = pj[4], dram_pj = pj[5];
    const double sb_pj = pj[6], send_recv_pj = pj[7], config_pj = pj[8];
    const double lane = pj[9];
    const i64 n_synth = s.next_seq - seq_base;
    i64 seen[N_COMPONENTS] = {0};
    i64 n_order = 0, nd = 0, ne = 0, n_core = 0, branches = 0, core_mem = 0;
    for (int k = 0; k < N_COMPONENTS; k++) vals[k] = 0.0;
    o_dep_ptr[0] = 0;
    o_extra_ptr[0] = 0;
#define POS(q) pos_of((q), start, end, tpos, seq_base, n_synth, spos)
    for (i64 r = 0; r < s.n; r++) {
        const i64 i = s.src[r], op = s.op[r], fl = op_flags[op];
        const i64 mem = s.is_mem[i], acc = s.accel[r];
        const i64 w = s.vw[r] > 1 ? s.vw[r] : 1;
        o_accel[r] = acc;
        o_lat[r] = s.lat_o[r];
        o_occ[r] = fl & F_UNPIPE ? s.lat_o[r] : 1;
        o_tab[r] = mem ? port_table : op_class[op];
        o_mem[r] = mem;
        o_store[r] = (fl & F_STORE) != 0;
        o_memdep[r] = s.memdep_o[r] >= 0 ? POS(s.memdep_o[r]) : -1;
        if (s.edge_seq[r] >= 0) {
            o_extra_idx[ne] = POS(s.edge_seq[r]);
            o_extra_lat[ne++] = s.edge_lat[r];
        }
        for (i64 d = s.dhead[r]; d >= 0; d = s.d_next[d]) {
            const i64 dep = s.d_seq[d];
            if (acc && forward && dep >= SYNTH_BASE) {
                /* Fabric forwarding, after the row's own edges. */
                o_extra_idx[ne] = POS(dep);
                o_extra_lat[ne++] = forward;
            } else {
                const i64 q = POS(dep);
                if (q >= 0) o_dep_idx[nd++] = q;
            }
        }
        o_dep_ptr[r + 1] = nd;
        o_extra_ptr[r + 1] = ne;
        o_mispred[r] = s.mispred_o[r] ? 1 : 0;
        o_icache[r] = s.icache_o[r];
        o_tag[r] = acc ? 0 : -1;
        if (s.seq[r] >= SYNTH_BASE) spos[s.seq[r] - seq_base] = r;
        else tpos[s.seq[r] - start] = r;

        double l1d = l1d_pj;
        if (acc) {
            if (op == s.cfu_op)
                CHARGE(K_CFU, op_pj + cfu_extra * (double)(w - 1));
            else if (fl & F_CFG)
                CHARGE(K_ACCEL_CONFIG, config_pj);
            else
                CHARGE(K_OP, op_pj);
            CHARGE(K_NET, net_pj);
        } else {
            const i64 category = s.category[i];
            o_regfile[n_core] = category;
            if (!n_core) {
                TOUCH(K_FETCH); TOUCH(K_DECODE); TOUCH(K_RENAME);
                TOUCH(K_IQ); TOUCH(K_ROB);
                if (category) TOUCH(K_REGFILE);
                TOUCH(K_BYPASS); TOUCH(K_COMMIT);
            } else if (category) {
                TOUCH(K_REGFILE);
            }
            n_core++;
            double fu = fu_pj[op];
            if (s.vw[r] > 1 || fl & F_VECTOR) {
                fu = fu * (double)w * lane;
                if (fu != 0.0) CHARGE(K_SIMD_FU, fu);
            } else if (fu != 0.0) {
                CHARGE(K_FU, fu);
            }
            if (fl & F_BR) {
                branches++;
                TOUCH(K_BPRED);
            } else if (fl & F_SENDRECV) {
                CHARGE(K_ACCEL_COMM, send_recv_pj);
            } else if (fl & F_CFG) {
                CHARGE(K_ACCEL_CONFIG, config_pj);
            }
            if (mem) {
                core_mem++;
                TOUCH(K_LSQ);
                l1d = l1d_pj * (1.0 + 0.3 * (double)(w - 1));
            }
        }
        if (mem) {
            const i64 level = s.level[i];
            CHARGE(K_L1D, l1d);
            if (level >= 2) CHARGE(K_L2, l2_pj);
            if (level == 3) CHARGE(K_DRAM, dram_pj);
            if (acc && store_buffer && fl & F_ST)
                CHARGE(K_STORE_BUFFER, sb_pj);
        }
    }
#undef POS
    result[0] = s.n; result[1] = nd; result[2] = ne;
    result[3] = s.next_seq; result[4] = n_core; result[5] = branches;
    result[6] = core_mem; result[7] = n_order;
    free(scratch);
    return 0;
}
"""

#: The kernel's two entry points once loaded: the timing run and the
#: dataflow offload.
_kernel = None
_offload = None
_kernel_lock = threading.Lock()
_kernel_tried = False

#: ``cc`` flags.  No floating-point contraction, so the offload sums
#: energy exactly as Python does.  Every process that times a stream
#: compiles the kernel once, cold, so build time counts: -O1 (and -O0
#: for the offload, whose run time is negligible beside its Python
#: set-up) builds both entry points in the time -O2 took to build the
#: timing run alone, which it runs ~8% slower.
_CFLAGS = ("-O1", "-shared", "-fPIC", "-ffp-contract=off")


def _kernel_build_dir():
    override = os.environ.get("REPRO_FASTPATH_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fastpath"


def _compile_kernel():
    """Build (or reuse) the kernel shared object; its two entry points
    ``(run, offload)``, or None on any failure.

    The .so is content-addressed on the C source and flags digest, so
    editing the kernel recompiles and stale builds are never loaded.
    Builds are atomic (temp + rename) — concurrent sweep workers race
    harmlessly.
    """
    if os.environ.get("REPRO_NO_KERNEL"):
        return None
    digest = hashlib.sha256(
        " ".join(_CFLAGS + (_KERNEL_SOURCE,)).encode()).hexdigest()[:16]
    build_dir = _kernel_build_dir()
    so_path = build_dir / f"kernel-{digest}.so"
    try:
        if not so_path.exists():
            build_dir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
                c_path = Path(tmp) / "kernel.c"
                tmp_so = Path(tmp) / "kernel.so"
                c_path.write_text(_KERNEL_SOURCE)
                subprocess.run(
                    ["cc", *_CFLAGS, "-o", str(tmp_so), str(c_path)],
                    check=True, capture_output=True, timeout=120)
                os.replace(tmp_so, so_path)
        lib = ctypes.CDLL(str(so_path))
    except (OSError, subprocess.SubprocessError):
        return None
    fn = lib.repro_fastpath_run
    fn.restype = ctypes.c_int64
    # Raw addresses instead of typed pointers: ctypes converts
    # c_void_p from a plain int with no per-argument object
    # construction, keeping kernel dispatch cheap for short streams.
    fn.argtypes = [ctypes.c_void_p] * 21
    offload = lib.repro_dataflow_offload
    offload.restype = ctypes.c_int64
    offload.argtypes = [ctypes.c_void_p] * 12
    return fn, offload


def kernel_available():
    """True when the compiled kernel is loadable (memoized)."""
    global _kernel, _offload, _kernel_tried
    if not _kernel_tried:
        with _kernel_lock:
            if not _kernel_tried:
                _kernel, _offload = _compile_kernel() or (None, None)
                _kernel_tried = True
    return _kernel is not None


def _reset_kernel():
    """Forget the memoized kernel (tests toggling $REPRO_NO_KERNEL)."""
    global _kernel, _offload, _kernel_tried
    with _kernel_lock:
        _kernel = _offload = None
        _kernel_tried = False


#: Per-config FU/port capacity vectors as ready-made ctypes arrays,
#: keyed by config identity (the entry keeps the config alive, so ids
#: cannot be recycled while cached).  Bounded: cleared when overgrown.
_CAPS_CACHE = {}


# ---------------------------------------------------------------------------
# The fast engine.

class FastTimingEngine(TimingEngine):
    """Array-of-struct twin of :class:`~repro.tdg.engine.TimingEngine`.

    Same constructor and :meth:`run` contract; byte-identical results
    (cycles, commit times, critical-edge histogram) on any stream.
    :meth:`run` follows the stream's form
    (:meth:`StreamBuilder.finish` picks it): the C kernel times a
    :class:`LoweredStream`, the object engine a DynInst list.
    """

    #: The class's own attribute, so a hook on ``FastTimingEngine.run``
    #: (perfbench's ``tdg.time``) wraps the fast engine's runs.
    run = TimingEngine.run

    def _run(self, stream, start_time=0):
        if stream.__class__ is not LoweredStream:
            return super()._run(stream, start_time)
        accel = self.accel_resources
        if not kernel_available() or (accel is not None and any(
                table.used for table in accel.tables.values())):
            # Only the object engine models a pre-used shared
            # reservation state (cross-run carry-over); flat tables
            # start fresh.
            raise LoweringError(
                "the kernel cannot time this lowered stream (no kernel, "
                "or pre-used accelerator resources)")
        counter("repro_fastpath_runs_total",
                "fast-engine evaluations (lowered streams timed)").inc()
        return self._run_kernel(stream, start_time)

    # ------------------------------------------------------------------
    def _accel_spec(self, lowered):
        """Per-tag (capacity, window) arrays for this run's stream."""
        accel = self.accel_resources
        caps = []
        windows = []
        for tag in lowered.accel_tags:
            if accel is not None and tag in accel.tables:
                caps.append(accel.tables[tag].capacity)
            else:
                caps.append(-1)
            windows.append((accel.windows.get(tag) or 0)
                           if accel is not None else 0)
        return caps, windows

    def _result(self, cycles, lowered, commits, hist_counts):
        n = lowered.n
        return TimingResult(
            cycles=cycles, instructions=n, committed_uops=n,
            commit_times=None if commits is None else list(commits),
            crit_histogram=bind_histogram(hist_counts),
        )

    # ------------------------------------------------------------------
    def _run_kernel(self, lowered, start_time):
        config = self.config
        n = lowered.n
        in_order = config.in_order
        rob_size = config.rob_size if not in_order \
            else config.width * (config.decode_depth + 4)
        caps, windows = self._accel_spec(lowered)
        have_accel = self.accel_resources is not None
        cfg = (ctypes.c_int64 * 13)(
            n, config.width, 1 if in_order else 0, config.decode_depth,
            rob_size if rob_size is not None else (1 << 60),
            config.iq_size if config.iq_size is not None else -1,
            config.branch_penalty, int(start_time),
            1 if self.collect_commit_times else 0,
            _N_TABLES, PORT_TABLE, len(lowered.accel_tags),
            1 if have_accel else 0,
        )
        cached = _CAPS_CACHE.get(id(config))
        if cached is None or cached[0] is not config:
            if len(_CAPS_CACHE) > 64:
                _CAPS_CACHE.clear()
            cached = (config, (ctypes.c_int64 * _N_TABLES)(
                *([config.fu_count(cls) for cls in _OP_CLASSES]
                  + [config.dcache_ports])))
            _CAPS_CACHE[id(config)] = cached
        table_caps = cached[1]
        n_tags = len(lowered.accel_tags)
        accel_caps = (ctypes.c_int64 * n_tags)(*caps) if n_tags \
            else None
        accel_windows = (ctypes.c_int64 * n_tags)(*windows) if n_tags \
            else None
        hist = (ctypes.c_int64 * 8)()
        commits = (ctypes.c_int64 * n)() if self.collect_commit_times \
            else None
        cycles = _kernel(
            ctypes.addressof(cfg), ctypes.addressof(table_caps),
            *lowered.addrs(),
            ctypes.addressof(accel_caps) if accel_caps else 0,
            ctypes.addressof(accel_windows) if accel_windows else 0,
            ctypes.addressof(hist),
            ctypes.addressof(commits) if commits is not None else 0,
        )
        if cycles < 0:
            raise MemoryError("fastpath kernel allocation failed")
        return self._result(cycles, lowered, commits, hist)
