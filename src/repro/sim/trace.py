"""Dynamic-trace records consumed by the TDG constructor.

A :class:`DynInst` is one executed instruction carrying the dynamic
facts the paper's µDG embeds: producer seq-ids for each register
operand, the memory dependence, the observed memory latency, and branch
outcome/misprediction.  A :class:`Trace` is the ordered stream plus
summary statistics.  The interpreter also leaves a
:class:`TraceColumns` on its trace: the rows' dynamic facts as plain
lists, which :func:`~repro.tdg.fastpath.baseline_from_columns` packs
into the lowered baseline trace without walking the rows again.
"""

#: Default of every :meth:`DynInst.clone` argument (and of
#: :meth:`~repro.tdg.fastpath.StreamBuilder.emit`'s): keep the field.
_KEEP = object()


class DynInst:
    """One dynamic instruction instance."""

    __slots__ = (
        "seq", "static", "opcode", "src_deps", "mem_dep", "mem_addr",
        "mem_lat", "mem_level", "taken", "mispredicted", "icache_lat",
        "accel", "extra_deps", "lat_override", "vector_width",
    )

    def __init__(self, seq, static, opcode, src_deps=(), mem_dep=None,
                 mem_addr=None, mem_lat=0, mem_level=None, taken=None,
                 mispredicted=False, icache_lat=0, accel=None,
                 extra_deps=(), lat_override=None, vector_width=1):
        self.seq = seq
        self.static = static        # the static Instruction (or a
        #                             transform-synthesized pseudo-inst)
        self.opcode = opcode        # may differ from static.opcode after
        #                             a transform rewrites it
        self.src_deps = tuple(src_deps)
        self.mem_dep = mem_dep      # seq of the store this load/store
        #                             depends on, or None
        self.mem_addr = mem_addr
        self.mem_lat = mem_lat
        self.mem_level = mem_level  # 'l1' | 'l2' | 'dram' | None
        self.taken = taken
        self.mispredicted = mispredicted
        self.icache_lat = icache_lat
        # ---- transform-side fields (paper's "graph re-writing") ------
        self.accel = accel          # BSA tag when the op runs off-core
        self.extra_deps = tuple(extra_deps)   # (seq, latency) edges
        self.lat_override = lat_override      # transform-set latency
        self.vector_width = vector_width      # lanes (energy accounting)

    def clone(self, seq=_KEEP, static=_KEEP, opcode=_KEEP,
              src_deps=_KEEP, mem_dep=_KEEP, mem_addr=_KEEP,
              mem_lat=_KEEP, mem_level=_KEEP, taken=_KEEP,
              mispredicted=_KEEP, icache_lat=_KEEP, accel=_KEEP,
              extra_deps=_KEEP, lat_override=_KEEP, vector_width=_KEEP):
        """Copy with field overrides (used by TDG transforms).

        Copies the slots directly, with no keyword dict or constructor
        call; dependence overrides become tuples, as in the
        constructor."""
        inst = object.__new__(DynInst)
        inst.seq = self.seq if seq is _KEEP else seq
        inst.static = self.static if static is _KEEP else static
        inst.opcode = self.opcode if opcode is _KEEP else opcode
        inst.src_deps = self.src_deps if src_deps is _KEEP \
            else tuple(src_deps)
        inst.mem_dep = self.mem_dep if mem_dep is _KEEP else mem_dep
        inst.mem_addr = self.mem_addr if mem_addr is _KEEP else mem_addr
        inst.mem_lat = self.mem_lat if mem_lat is _KEEP else mem_lat
        inst.mem_level = self.mem_level if mem_level is _KEEP \
            else mem_level
        inst.taken = self.taken if taken is _KEEP else taken
        inst.mispredicted = self.mispredicted if mispredicted is _KEEP \
            else mispredicted
        inst.icache_lat = self.icache_lat if icache_lat is _KEEP \
            else icache_lat
        inst.accel = self.accel if accel is _KEEP else accel
        inst.extra_deps = self.extra_deps if extra_deps is _KEEP \
            else tuple(extra_deps)
        inst.lat_override = self.lat_override if lat_override is _KEEP \
            else lat_override
        inst.vector_width = self.vector_width if vector_width is _KEEP \
            else vector_width
        return inst

    @property
    def op_class(self):
        return self.opcode.op_class

    @property
    def latency(self):
        """Execute latency: a transform override if present, else the
        observed memory latency for memory ops, else FU latency."""
        if self.lat_override is not None:
            return self.lat_override
        if self.mem_addr is not None and self.mem_lat:
            return self.mem_lat
        return self.opcode.latency

    @property
    def uid(self):
        """Static uid ("PC") of the underlying instruction."""
        return self.static.uid if self.static is not None else None

    def __repr__(self):
        return (f"<DynInst #{self.seq} {self.opcode.value} "
                f"uid={self.uid}>")


#: Codes of :attr:`DynInst.mem_level` in the lowered trace's memory
#: level column; a level outside the cache hierarchy's reads as ``l1``.
MEM_LEVEL_CODES = {None: 0, "l1": 1, "l2": 2, "dram": 3}


class TraceColumns:
    """The rows of an interpreter trace as plain int lists, one entry
    per row in trace order, filled as the interpreter executes.

    ``uid`` is the static instruction's uid; ``lat`` the execute
    latency (:attr:`DynInst.latency`); ``memdep`` the memory
    dependence's seq, or -1; ``level`` the :data:`MEM_LEVEL_CODES` code
    of the memory level; ``mispred`` 1 for a mispredicted branch;
    ``icache`` the I-cache stall; ``regfile`` the regfile category (``2 *
    source deps + destination write``).  ``dep_ptr``/``dep_idx`` are
    the source deps in CSR form: row ``i``'s producers' seqs are
    ``dep_idx[dep_ptr[i]:dep_ptr[i + 1]]``.  A row's seq is its
    position, so every seq is also a row index.
    """

    __slots__ = ("uid", "lat", "memdep", "level", "mispred", "icache",
                 "regfile", "dep_ptr", "dep_idx")

    def __init__(self):
        for field in self.__slots__:
            setattr(self, field, [])
        self.dep_ptr.append(0)


class Trace:
    """An executed instruction stream plus execution metadata.

    *columns* is the interpreter's :class:`TraceColumns` of the rows,
    or None (a trace built some other way, or one whose columns were
    packed and dropped)."""

    def __init__(self, program, instructions, memory=None, registers=None,
                 columns=None):
        self.program = program
        self.instructions = instructions
        self.memory = memory          # final memory image (for checks)
        self.registers = registers    # final register file
        self.columns = columns
        self.block_counts = {}        # (func, label) -> executions
        self.branch_outcomes = {}     # static uid -> [not_taken, taken]

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def record_block(self, function_name, label):
        key = (function_name, label)
        self.block_counts[key] = self.block_counts.get(key, 0) + 1

    def record_branch(self, uid, taken):
        outcome = self.branch_outcomes.setdefault(uid, [0, 0])
        outcome[int(taken)] += 1

    def branch_bias(self, uid):
        """Probability the branch at *uid* is taken (0.5 if unseen)."""
        outcome = self.branch_outcomes.get(uid)
        if not outcome or not sum(outcome):
            return 0.5
        return outcome[1] / sum(outcome)

    # -- summary statistics used by analyses and tests -----------------
    def count_opcodes(self):
        counts = {}
        for dyn in self.instructions:
            counts[dyn.opcode] = counts.get(dyn.opcode, 0) + 1
        return counts

    def mispredict_count(self):
        return sum(1 for dyn in self.instructions if dyn.mispredicted)

    def memory_access_count(self):
        return sum(1 for dyn in self.instructions
                   if dyn.mem_addr is not None)
