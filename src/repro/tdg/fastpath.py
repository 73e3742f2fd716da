"""Flat array-of-struct fast path for the TDG timing engine.

:class:`~repro.tdg.engine.TimingEngine` walks Python object graphs:
every dynamic instruction is a :class:`~repro.sim.trace.DynInst` whose
latency/op-class are resolved through properties and dict lookups, and
every reservation is a dict probe.  That costs ~3.5 µs per instruction.

This module restructures the same computation into flat parallel
arrays evaluated by a compiled kernel:

- :class:`LoweredStream` lowers an instruction stream **once** into
  ``array('q')`` int64 buffers (latency, occupancy, FU table id,
  dependence CSR, accelerator tag ids, ...).  Producer references are
  resolved from seq ids to stream positions at lowering time, so the
  hot loop indexes a dense ``complete[]`` array instead of probing a
  dict.
- :class:`FastTimingEngine` evaluates a lowered stream with the exact
  edge rules of the object engine in a C kernel (``_KERNEL_SOURCE``,
  built once per source digest and loaded through ctypes).  Its
  reservation tables are windowed circular buffers: a cycle's
  occupancy lives at ``cycle & (WINDOW-1)`` with a validity mark.
  Results are asserted byte-identical to the object engine by
  ``tests/test_fastpath_equivalence.py``.

Engine selection
----------------

There is one implementation choice and one place that makes it:
:func:`make_engine` returns a :class:`FastTimingEngine` when the
kernel compiles (:func:`kernel_available`) and the reference
:class:`~repro.tdg.engine.TimingEngine` otherwise.  ``$REPRO_NO_KERNEL=1``
forces the reference engine.  Because the two engines are
byte-identical, the choice is not an option anywhere else and does not
participate in the sweep cache key (the fastpath *source* is covered
by ``engine_version_hash`` like every other ``tdg`` module, so a change
to this file still cold-starts the cache).

Exactness guardrails: without a kernel, on streams that cannot be
lowered exactly (e.g. a DSL transform producing non-integer
latencies), and when handed a pre-used
:class:`~repro.tdg.engine.AccelResources`, :class:`FastTimingEngine`
delegates to the object engine instead of risking divergence.
"""

import array
import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

from repro.isa.opcodes import (
    Opcode, OpClass, fu_latency, is_store, op_class,
)
from repro.obs import counter, is_enabled, span
from repro.tdg.engine import (
    AccelResources, TimingEngine, TimingResult, _UNPIPELINED,
)
from repro.tdg.mudg import EdgeKind

#: Table ids: one per OpClass, then the shared D-cache port table.
_OP_CLASSES = tuple(OpClass)
_OP_INDEX = {cls: i for i, cls in enumerate(_OP_CLASSES)}
PORT_TABLE = len(_OP_CLASSES)
_N_TABLES = PORT_TABLE + 1

#: Per-opcode lookups hoisted out of the lowering loop (the DynInst
#: ``latency``/``op_class`` properties cost a function call plus dict
#: probes per instruction; these flatten both to one dict hit).
_FU_LAT = {opcode: fu_latency(opcode) for opcode in Opcode}
_TAB_OF = {opcode: _OP_INDEX[op_class(opcode)] for opcode in Opcode}
_IS_STORE = {opcode: is_store(opcode) for opcode in Opcode}

#: Critical-edge bind codes of the C kernel's histogram slots.
_BIND_KINDS = (
    EdgeKind.ISSUE, EdgeKind.DATA_DEP, EdgeKind.MEM_DEP,
    EdgeKind.ACCEL_DEP, EdgeKind.INORDER_ISSUE,
    EdgeKind.PORT_CONTENTION, EdgeKind.FU_CONTENTION,
    EdgeKind.ACCEL_RESOURCE,
)


class LoweringError(Exception):
    """Stream cannot be represented exactly as int64 arrays."""


def _int_array(values):
    """C-contiguous int64 buffer.

    Non-integer values raise ``TypeError`` and out-of-range ones
    ``OverflowError`` instead of being coerced: a stream carrying
    float latencies must take the object path, where float arithmetic
    is modeled exactly.
    """
    return array.array("q", values)


class LoweredStream:
    """One instruction stream as parallel int64 arrays.

    Lower once, evaluate many times: the per-benchmark baseline path
    runs the same trace under four core configs, so the evaluator
    lowers the trace a single time and hands the ``LoweredStream`` to
    each engine run.
    """

    __slots__ = (
        "n", "is_accel", "lat", "occ", "tab", "is_mem", "is_store",
        "memdep", "dep_ptr", "dep_idx", "extra_ptr", "extra_idx",
        "extra_lat", "mispred", "icache", "accel_tag", "accel_tags",
        "has_accel", "_addrs",
    )

    #: Kernel argument order of the per-instruction arrays.
    FIELDS = (
        "is_accel", "lat", "occ", "tab", "is_mem", "is_store",
        "memdep", "dep_ptr", "dep_idx", "extra_ptr", "extra_idx",
        "extra_lat", "mispred", "icache", "accel_tag",
    )

    def __init__(self, stream):
        seqpos = {}
        tag_ids = {}
        is_accel = []
        lat = []
        occ = []
        tab = []
        is_mem = []
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
        # Bound methods / hoisted lookups: this loop runs once per
        # dynamic instruction and is itself perf-sensitive.
        fu_lat = _FU_LAT
        tab_of = _TAB_OF
        store_of = _IS_STORE
        unpipelined = _UNPIPELINED
        seqpos_get = seqpos.get
        lat_append = lat.append
        occ_append = occ.append
        tab_append = tab.append
        is_mem_append = is_mem.append
        is_st_append = is_st.append
        memdep_append = memdep.append
        dep_ptr_append = dep_ptr.append
        dep_idx_append = dep_idx.append
        extra_ptr_append = extra_ptr.append
        mispred_append = mispred.append
        icache_append = icache.append
        accel_append = accel_tag.append
        is_accel_append = is_accel.append
        i = 0
        for inst in stream:
            opcode = inst.opcode
            # Inlined DynInst.latency (override -> observed memory
            # latency -> nominal FU latency).
            latency = inst.lat_override
            mem = inst.mem_addr is not None
            if latency is None:
                mem_lat = inst.mem_lat
                latency = mem_lat if mem and mem_lat \
                    else fu_lat[opcode]
            lat_append(latency)
            occ_append(latency if opcode in unpipelined else 1)
            if mem:
                is_mem_append(1)
                tab_append(PORT_TABLE)
            else:
                is_mem_append(0)
                tab_append(tab_of[opcode])
            is_st_append(1 if store_of[opcode] else 0)
            md = inst.mem_dep
            memdep_append(seqpos_get(md, -1) if md is not None else -1)
            for dep in inst.src_deps:
                # Live-in producers resolve to start_time, which can
                # never exceed the running ready time — drop them.
                pos = seqpos_get(dep, -1)
                if pos >= 0:
                    dep_idx_append(pos)
            dep_ptr_append(len(dep_idx))
            for dep, extra in inst.extra_deps:
                # Live-in extra deps still charge latency on top of
                # start_time, so they are kept with position -1.
                extra_idx.append(seqpos_get(dep, -1))
                extra_lat.append(extra)
            extra_ptr_append(len(extra_idx))
            mispred_append(1 if inst.mispredicted else 0)
            icache_append(inst.icache_lat)
            accel = inst.accel
            if accel is None:
                is_accel_append(0)
                accel_append(-1)
            else:
                is_accel_append(1)
                tid = tag_ids.get(accel)
                if tid is None:
                    tid = tag_ids[accel] = len(tag_ids)
                accel_append(tid)
            seqpos[inst.seq] = i
            i += 1
        try:
            self.is_accel = _int_array(is_accel)
            self.lat = _int_array(lat)
            self.occ = _int_array(occ)
            self.tab = _int_array(tab)
            self.is_mem = _int_array(is_mem)
            self.is_store = _int_array(is_st)
            self.memdep = _int_array(memdep)
            self.dep_ptr = _int_array(dep_ptr)
            self.dep_idx = _int_array(dep_idx)
            self.extra_ptr = _int_array(extra_ptr)
            self.extra_idx = _int_array(extra_idx)
            self.extra_lat = _int_array(extra_lat)
            self.mispred = _int_array(mispred)
            self.icache = _int_array(icache)
            self.accel_tag = _int_array(accel_tag)
        except (TypeError, OverflowError) as exc:
            raise LoweringError(f"stream is not int64-lowerable: {exc}") \
                from exc
        self.n = len(lat)
        self.accel_tags = tuple(tag_ids)
        self.has_accel = bool(tag_ids)
        self._addrs = None

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


def lower_stream(stream):
    """Lower *stream* (a list of DynInst) into a :class:`LoweredStream`.

    Idempotent: an already-lowered stream is returned as-is, so call
    sites can lower eagerly where reuse is known (the evaluator's
    baseline loop) and pass either form everywhere else.
    """
    if isinstance(stream, LoweredStream):
        return stream
    return LoweredStream(stream)


def lower_for_reuse(stream):
    """*stream* in the form to time under several core configs.

    Lowered once when the kernel will time it; unchanged without a
    kernel, or when the stream is not int64-lowerable (each run then
    takes the object engine, exactly as an unlowered stream would).
    """
    if not kernel_available():
        return stream
    try:
        return lower_stream(stream)
    except LoweringError:
        return stream


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
"""

_kernel = None
_kernel_lock = threading.Lock()
_kernel_tried = False


def _kernel_build_dir():
    override = os.environ.get("REPRO_FASTPATH_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fastpath"


def _compile_kernel():
    """Build (or reuse) the kernel shared object; None on any failure.

    The .so is content-addressed on the C source digest, so editing
    the kernel recompiles and stale builds are never loaded.  Builds
    are atomic (temp + rename) — concurrent sweep workers race
    harmlessly.
    """
    if os.environ.get("REPRO_NO_KERNEL"):
        return None
    digest = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
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
                    ["cc", "-O2", "-shared", "-fPIC",
                     "-o", str(tmp_so), str(c_path)],
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
    return fn


def kernel_available():
    """True when the compiled kernel is loadable (memoized)."""
    global _kernel, _kernel_tried
    if not _kernel_tried:
        with _kernel_lock:
            if not _kernel_tried:
                _kernel = _compile_kernel()
                _kernel_tried = True
    return _kernel is not None


def _reset_kernel():
    """Forget the memoized kernel (tests toggling $REPRO_NO_KERNEL)."""
    global _kernel, _kernel_tried
    with _kernel_lock:
        _kernel = None
        _kernel_tried = False


#: Per-config FU/port capacity vectors as ready-made ctypes arrays,
#: keyed by config identity (the entry keeps the config alive, so ids
#: cannot be recycled while cached).  Bounded: cleared when overgrown.
_CAPS_CACHE = {}


def _addr_of(buf):
    """Base address of an int64 buffer (0 for empty buffers).

    The address stays valid for the buffer's lifetime; callers must
    keep the owning object alive across the kernel call (lowered
    streams hold theirs, per-run buffers are locals).
    """
    return buf.buffer_info()[0] if len(buf) else 0


# ---------------------------------------------------------------------------
# The fast engine.

class FastTimingEngine:
    """Array-of-struct twin of :class:`~repro.tdg.engine.TimingEngine`.

    Same constructor and :meth:`run` contract; byte-identical results
    (cycles, commit times, critical-edge histogram) on any stream.
    ``run`` accepts either a DynInst list (lowered on the fly) or a
    pre-built :class:`LoweredStream` (the amortized path, which needs
    the kernel).  Without a kernel, DynInst lists are timed by the
    object engine.
    """

    def __init__(self, config, accel_resources=None,
                 collect_commit_times=False):
        self.config = config
        self.accel_resources = accel_resources
        self.collect_commit_times = collect_commit_times

    # ------------------------------------------------------------------
    def run(self, stream, start_time=0):
        """Evaluate *stream*; same observability contract as the
        object engine (one ``repro_engine_runs_total`` tick, a
        ``tdg.engine.run`` span when tracing is on)."""
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

    # ------------------------------------------------------------------
    def _object_fallback(self, stream, start_time):
        if isinstance(stream, LoweredStream):
            raise LoweringError(
                "cannot fall back to the object engine from a "
                "pre-lowered stream")
        return TimingEngine(
            self.config, accel_resources=self.accel_resources,
            collect_commit_times=self.collect_commit_times,
        )._run(stream, start_time)

    def _run(self, stream, start_time=0):
        accel = self.accel_resources
        if accel is not None and not isinstance(accel, AccelResources):
            raise TypeError(f"unsupported accel resources {accel!r}")
        if not kernel_available() or (accel is not None and any(
                table.used for table in accel.tables.values())):
            # No kernel, or a pre-used shared reservation state that
            # cannot be mirrored into fresh flat tables (only the
            # object engine models cross-run carry-over).
            return self._object_fallback(stream, start_time)
        try:
            lowered = lower_stream(stream)
        except LoweringError:
            return self._object_fallback(stream, start_time)
        counter("repro_fastpath_runs_total",
                "fast-engine evaluations (lowered streams timed)").inc()
        return self._run_kernel(lowered, start_time)

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
        histogram = {}
        for code, kind in enumerate(_BIND_KINDS):
            if hist_counts[code]:
                histogram[kind] = hist_counts[code]
        n = lowered.n
        return TimingResult(
            cycles=cycles, instructions=n, committed_uops=n,
            commit_times=None if commits is None else list(commits),
            crit_histogram=histogram,
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


def make_engine(config, **kwargs):
    """The timing engine for *config*: the single selection point.

    A :class:`FastTimingEngine` when the compiled kernel is available,
    else the reference :class:`~repro.tdg.engine.TimingEngine` (also
    what ``$REPRO_NO_KERNEL=1`` forces).  Keyword arguments are
    forwarded to the engine constructor (``accel_resources``,
    ``collect_commit_times``).
    """
    if kernel_available():
        return FastTimingEngine(config, **kwargs)
    return TimingEngine(config, **kwargs)
