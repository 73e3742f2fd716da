"""One walk per stream: lowered columns and energy events in one pass.

:func:`repro.tdg.fastpath.lower_stream` lowers an instruction stream
into the C kernel's int64 columns and counts its core-independent
energy events in the same walk; :func:`~repro.tdg.fastpath.stream_events`
runs that walk without lowering (a baseline loop's spans, and
``EnergyModel.evaluate``).  :meth:`StreamBuilder.finish` lowers only
when the kernel loads, and hands back a stream that cannot be lowered
as its rows.  The references here rebuild every column from the
per-instruction definitions (``DynInst.latency``, ``DynInst.op_class``,
``is_store``) and price every stream one instruction at a time with the
seed oracle of ``tests/test_region_reuse.py``, bit for bit.

A :class:`~repro.tdg.fastpath.StreamBuilder` walks each instruction it
keeps exactly like this; ``tests/test_stream_builder.py`` checks that
the rows BSA transforms emit lower exactly like this too.

Also pinned here, since the walk and the transforms read them: the
per-opcode facts set on ``Opcode`` members, ``DynInst.clone``,
compound-op folding, and a machine-independent gate on
``Enum.__hash__`` calls per evaluated benchmark.
"""

import enum
import random

import pytest

from repro.accel.base import SeqAllocator, map_deps, offload_dataflow
from repro.analysis.cfu import CFUSchedule
from repro.core_model import core_by_name
from repro.core_model.config import DSE_CORES
from repro.energy.mcpat import EnergyModel
from repro.exocore import evaluate_benchmark
from repro.isa import Instruction, Opcode
from repro.isa.opcodes import (
    FU_LATENCY, OpClass, UNPIPELINED, _OP_CLASS, _VECTOR_TO_SCALAR,
    is_compute, is_store,
)
from repro.sim.trace import DynInst
from repro.tdg.fastpath import (
    PORT_TABLE, LoweredStream, LoweringError, StreamBuilder,
    kernel_available, lower_stream, stream_events,
)
from repro.workloads import WORKLOADS
from tests.test_fastpath_equivalence import random_stream
from tests.test_region_reuse import _synthetic_stream, seed_price

#: The seed's unpipelined FUs, written out as the engine had them.
SEED_UNPIPELINED = {
    Opcode.DIV, Opcode.REM, Opcode.FDIV, Opcode.FSQRT, Opcode.VFDIV,
}

_WITH_DEST = Instruction(Opcode.ADD, dest=3, srcs=(4,))
_WITH_DEST.uid = 0
_NO_DEST = Instruction(Opcode.ST, srcs=(1, 2))
_NO_DEST.uid = 1

_OPCODES = (
    Opcode.ADD, Opcode.MUL, Opcode.DIV, Opcode.FADD, Opcode.FDIV,
    Opcode.FSQRT, Opcode.LD, Opcode.ST, Opcode.BR, Opcode.JMP,
    Opcode.VADD, Opcode.VFDIV, Opcode.VLD, Opcode.VST, Opcode.VBLEND,
    Opcode.CFU, Opcode.CFG, Opcode.SEND, Opcode.RECV, Opcode.SWITCH,
)
_ACCELS = ("dp_cgra", "ns_df", "trace_p", "simd", "custom")
_MEM_LEVELS = (("l1", 4), ("l2", 12), ("dram", 176), (None, 0))


def mixed_stream(seed, n=400, float_latency=False):
    """Every walk branch: accelerator tags (known and unknown), CFU /
    CFG / SEND / RECV, vector widths, memory levels, statics with and
    without a destination, dependence kinds and latency overrides."""
    rng = random.Random(seed)
    stream = []
    for seq in range(n):
        opcode = rng.choice(_OPCODES)
        kwargs = {}
        deps = [rng.randrange(max(0, seq - 30), seq) if seq
                and rng.random() < 0.85 else seq + 50_000
                for _ in range(rng.randrange(4))]
        if opcode in (Opcode.LD, Opcode.ST, Opcode.VLD, Opcode.VST) \
                or rng.random() < 0.05:
            level, lat = rng.choice(_MEM_LEVELS)
            kwargs.update(mem_addr=rng.randrange(512) * 8, mem_lat=lat,
                          mem_level=level)
            if seq and rng.random() < 0.3:
                kwargs["mem_dep"] = rng.randrange(seq)
        if rng.random() < 0.3:
            kwargs["accel"] = rng.choice(_ACCELS)
        if rng.random() < 0.2 and seq:
            kwargs["extra_deps"] = tuple(
                (rng.choice((rng.randrange(seq), -7)),
                 rng.randrange(1, 9)) for _ in range(rng.randrange(1, 3)))
        if rng.random() < 0.3:
            kwargs["vector_width"] = rng.choice((0, 2, 3, 4, 8))
        if rng.random() < 0.1:
            kwargs["lat_override"] = rng.randrange(1, 30)
        if float_latency and rng.random() < 0.05:
            kwargs["lat_override"] = rng.randrange(1, 30) + 0.5
        kwargs["mispredicted"] = opcode is Opcode.BR and rng.random() < 0.3
        kwargs["icache_lat"] = rng.choice((0, 0, 0, 12))
        static = rng.choice((_WITH_DEST, _NO_DEST, None))
        stream.append(DynInst(seq, static, opcode, src_deps=deps,
                              **kwargs))
    return stream


def _streams():
    streams = {"synthetic": _synthetic_stream(), "empty": []}
    for seed in range(3):
        streams[f"random{seed}"] = random_stream(seed, n=300)
        streams[f"random_accel{seed}"] = random_stream(
            seed, n=300, accel_ratio=0.4)
        streams[f"mixed{seed}"] = mixed_stream(seed)
    return streams


STREAMS = _streams()

#: Streams with a float latency: never lowered, events still counted.
UNLOWERABLE = {f"float{seed}": mixed_stream(seed, float_latency=True)
               for seed in range(3)}


# ---------------------------------------------------------------------------
# Columns.

def reference_columns(stream):
    """Kernel columns from the per-instruction definitions."""
    columns = {field: [] for field in LoweredStream.FIELDS}
    columns["dep_ptr"].append(0)
    columns["extra_ptr"].append(0)
    seqpos = {}
    tags = []
    for position, inst in enumerate(stream):
        mem = inst.mem_addr is not None
        latency = inst.latency
        columns["is_accel"].append(int(inst.accel is not None))
        columns["lat"].append(latency)
        columns["occ"].append(
            latency if inst.opcode in SEED_UNPIPELINED else 1)
        columns["tab"].append(
            PORT_TABLE if mem else tuple(OpClass).index(inst.op_class))
        columns["is_mem"].append(int(mem))
        columns["is_store"].append(int(is_store(inst.opcode)))
        columns["memdep"].append(seqpos.get(inst.mem_dep, -1))
        columns["dep_idx"].extend(
            seqpos[dep] for dep in inst.src_deps if dep in seqpos)
        columns["dep_ptr"].append(len(columns["dep_idx"]))
        for dep, extra in inst.extra_deps:
            columns["extra_idx"].append(seqpos.get(dep, -1))
            columns["extra_lat"].append(extra)
        columns["extra_ptr"].append(len(columns["extra_idx"]))
        columns["mispred"].append(int(bool(inst.mispredicted)))
        columns["icache"].append(inst.icache_lat)
        if inst.accel is None:
            columns["accel_tag"].append(-1)
        else:
            if inst.accel not in tags:
                tags.append(inst.accel)
            columns["accel_tag"].append(tags.index(inst.accel))
        seqpos[inst.seq] = position
    return columns, tuple(tags)


@pytest.mark.parametrize("label", sorted(STREAMS))
def test_columns_match_per_instruction_definitions(label):
    stream = STREAMS[label]
    lowered = lower_stream(stream)
    expected, tags = reference_columns(stream)
    assert len(lowered) == len(stream)
    assert lowered.accel_tags == tags
    for field in LoweredStream.FIELDS:
        assert list(getattr(lowered, field)) == expected[field], field


# ---------------------------------------------------------------------------
# Events.

def finish(stream):
    """``(timed, events)`` of *stream* through a builder, as the
    evaluator takes the baseline trace."""
    out = StreamBuilder()
    out.extend(stream)
    return out.finish()


def assert_prices_like_seed(events, stream):
    for core_name in DSE_CORES:
        model = EnergyModel(core_by_name(core_name))
        for core_active, accels in ((True, ()),
                                    (False, ("ns_df", "custom"))):
            actual = model.price(events, 987, core_active=core_active,
                                 active_accels=accels).components
            expected = seed_price(model, stream, 987,
                                  core_active=core_active,
                                  active_accels=accels).components
            # Same components, first-charged order and bits.
            assert list(actual.items()) == list(expected.items()), \
                core_name


def assert_same_events(actual, expected):
    assert list(actual.components.items()) \
        == list(expected.components.items())
    assert actual.counts == expected.counts
    assert actual.regfile == expected.regfile


@pytest.mark.parametrize("label", sorted(STREAMS))
def test_walk_events_price_like_the_seed(label):
    stream = STREAMS[label]
    timed, events = finish(stream)
    assert (timed.__class__ is LoweredStream) == kernel_available()
    assert_prices_like_seed(events, stream)
    # Lowering or not, the walk counts the same events.
    assert_same_events(stream_events(stream), events)
    model = EnergyModel(core_by_name("OOO2"))
    assert list(model.evaluate(stream, 987).components.items()) \
        == list(model.price(events, 987).components.items())


@pytest.mark.parametrize("label", sorted(UNLOWERABLE))
def test_unlowerable_stream_still_yields_its_events(label):
    stream = UNLOWERABLE[label]
    with pytest.raises(LoweringError):
        lower_stream(stream)
    timed, events = finish(stream)
    assert timed.__class__ is list
    assert all(row is inst for row, inst in zip(timed, stream))
    assert len(timed) == len(stream)
    assert_prices_like_seed(events, stream)


@pytest.mark.parametrize("label", ("synthetic", "mixed0"))
def test_finish_lowers_only_for_the_kernel(label):
    stream = STREAMS[label]
    timed, events = finish(stream)
    if kernel_available():
        assert isinstance(timed, LoweredStream)
    else:
        assert timed.__class__ is list
        assert all(row is inst for row, inst in zip(timed, stream))
        assert len(timed) == len(stream)
    assert_prices_like_seed(events, stream)


# ---------------------------------------------------------------------------
# Opcode facts.

@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.value)
def test_opcode_facts_match_the_tables(opcode):
    op_class = _OP_CLASS[opcode]
    assert opcode.op_class is op_class
    assert tuple(OpClass)[opcode.class_id] is op_class
    assert opcode.latency == FU_LATENCY.get(opcode, 1)
    assert opcode.is_store is (op_class is OpClass.MEM_ST)
    assert opcode.is_compute is (op_class in (
        OpClass.ALU, OpClass.MUL, OpClass.FP, OpClass.FP_DIV))
    assert opcode.is_vector is (opcode in _VECTOR_TO_SCALAR or opcode in (
        Opcode.VBLEND, Opcode.VMOVMSK))
    assert opcode.unpipelined is (opcode in SEED_UNPIPELINED)
    assert is_compute(opcode) is opcode.is_compute


def test_unpipelined_set_is_the_seed_set():
    assert set(UNPIPELINED) == SEED_UNPIPELINED


# ---------------------------------------------------------------------------
# DynInst.clone.

def _full_inst():
    return DynInst(
        7, _WITH_DEST, Opcode.LD, src_deps=(1, 2), mem_dep=3,
        mem_addr=64, mem_lat=12, mem_level="l2", taken=True,
        mispredicted=True, icache_lat=26, accel="ns_df",
        extra_deps=((4, 5),), lat_override=9, vector_width=4)


def test_clone_copies_all_fifteen_slots():
    original = _full_inst()
    assert len(DynInst.__slots__) == 15
    copy = original.clone()
    assert copy is not original
    for name in DynInst.__slots__:
        assert getattr(copy, name) == getattr(original, name), name
    assert all(getattr(original, name) is not None
               for name in DynInst.__slots__)


def test_clone_applies_overrides_and_keeps_the_rest():
    original = _full_inst()
    copy = original.clone(seq=99, opcode=Opcode.CFU, accel=None,
                          lat_override=None, vector_width=1)
    assert (copy.seq, copy.opcode, copy.accel, copy.lat_override,
            copy.vector_width) == (99, Opcode.CFU, None, None, 1)
    for name in set(DynInst.__slots__) - {
            "seq", "opcode", "accel", "lat_override", "vector_width"}:
        assert getattr(copy, name) == getattr(original, name), name
    assert (original.seq, original.opcode) == (7, Opcode.LD)


def test_clone_turns_dependence_lists_into_tuples():
    copy = _full_inst().clone(src_deps=[5, 6], extra_deps=[(8, 2)])
    built = DynInst(7, None, Opcode.ADD, src_deps=[5, 6],
                    extra_deps=[(8, 2)])
    assert copy.src_deps == built.src_deps == (5, 6)
    assert copy.extra_deps == built.extra_deps == ((8, 2),)
    assert type(copy.src_deps) is type(copy.extra_deps) is tuple


def test_clone_rejects_unknown_fields():
    with pytest.raises(TypeError):
        _full_inst().clone(colour="red")


# ---------------------------------------------------------------------------
# Compound-op folding (offload_dataflow + StreamBuilder.fold).

def _static(uid, opcode=Opcode.ADD):
    inst = Instruction(opcode, dest=3, srcs=(4,))
    inst.uid = uid
    return inst


_CHAIN = [_static(10), _static(11, Opcode.MUL), _static(12, Opcode.FADD)]
_SINGLE = _static(20)
_UNSCHEDULED = _static(30)


class _Row:
    """An emitted row as it stands now (folds patch it in place), read
    by DynInst field name."""

    def __init__(self, fields):
        self._fields = fields

    def __getattr__(self, name):
        return self._fields[DynInst.__slots__.index(name)]


class _Folder:
    """The compound-op rule of ``offload_dataflow`` on a builder:
    :meth:`process` returns the compound row an instance opens, or None
    when it folds into an open one (its mapped deps are ``map_deps`` of
    its own, which is what each caller passes)."""

    def __init__(self, schedule, seq_map):
        self.schedule = schedule
        self.seq_map = seq_map
        self.chains = {}
        self.seq_alloc = SeqAllocator()
        self.out = StreamBuilder()

    def process(self, dyn, mapped_deps):
        assert mapped_deps == map_deps(dyn, self.seq_map)
        before = len(self.out)
        offload_dataflow(dyn, {10, 11, 12, 20, 30}, "ns_df", (),
                         self.schedule.slots, self.chains, self.seq_map,
                         self.seq_alloc, self.out)
        if len(self.out) == before:
            return None
        return _Row(self.out._rows[before])


def _folder():
    schedule = CFUSchedule(loop=None, max_cfu_size=4, cross_control=False)
    schedule.cfus = [[10, 11, 12], [20]]
    schedule.cfu_of = {10: 0, 11: 0, 12: 0, 20: 1}
    seq_map = {}
    return _Folder(schedule, seq_map), seq_map


class _Trace:
    """Dynamic instances with fresh seqs."""

    def __init__(self):
        self.seq = 0

    def __call__(self, static, deps=()):
        self.seq += 1
        return DynInst(self.seq, static, static.opcode, src_deps=deps)


def test_folder_folds_in_order_members_into_the_chain_head():
    folder, seq_map = _folder()
    dyn = _Trace()
    first, second, third = (dyn(_CHAIN[0], (100,)), dyn(_CHAIN[1], (1, 200)),
                            dyn(_CHAIN[2], (2, 100, 300)))
    head = folder.process(first, first.src_deps)
    assert head is not None
    assert (head.opcode, head.accel, head.vector_width) \
        == (Opcode.CFU, "ns_df", 1)
    assert head.lat_override == first.latency
    assert head.seq >= SeqAllocator._BASE
    mapped = tuple(seq_map.get(d, d) for d in second.src_deps)
    assert folder.process(second, mapped) is None
    mapped = tuple(seq_map.get(d, d) for d in third.src_deps)
    assert folder.process(third, mapped) is None
    # Serialized compound latency, one lane per fused op, and only
    # external deps merged in (the head's own seq is internal).
    assert head.lat_override == sum(
        d.latency for d in (first, second, third))
    assert head.vector_width == 3
    assert head.src_deps == (100, 200, 300)
    assert seq_map == {1: head.seq, 2: head.seq, 3: head.seq}


def test_folder_starts_a_fresh_cfu_for_an_out_of_order_instance():
    folder, seq_map = _folder()
    dyn = _Trace()
    head = folder.process(dyn(_CHAIN[0]), ())
    skipped = dyn(_CHAIN[2])           # position 2 while 1 is expected
    fresh = folder.process(skipped, ())
    assert fresh is not None and fresh is not head
    assert fresh.seq != head.seq and fresh.vector_width == 1
    assert seq_map[skipped.seq] == fresh.seq
    # A non-head member with nothing pending also starts fresh.
    other, _ = _folder()
    assert other.process(_Trace()(_CHAIN[1]), ()) is not None


def test_folder_closes_the_chain_at_its_last_member():
    folder, _ = _folder()
    dyn = _Trace()
    head = folder.process(dyn(_CHAIN[0]), ())
    assert folder.process(dyn(_CHAIN[1]), ()) is None
    assert folder.process(dyn(_CHAIN[2]), ()) is None
    # The chain is closed: no further member instance folds into it,
    # not even its last member's, and a new head opens a new chain.
    for member in (_CHAIN[2], _CHAIN[1]):
        assert folder.process(dyn(member), ()) is not None
    assert head.vector_width == 3
    second_head = folder.process(dyn(_CHAIN[0]), ())
    assert folder.process(dyn(_CHAIN[1]), ()) is None
    assert second_head.vector_width == 2


def test_folder_single_member_and_unscheduled_ops_stand_alone():
    folder, _ = _folder()
    dyn = _Trace()
    first = folder.process(dyn(_SINGLE), ())
    second = folder.process(dyn(_SINGLE), ())
    loose = folder.process(dyn(_UNSCHEDULED), ())
    assert None not in (first, second, loose)
    assert len({first.seq, second.seq, loose.seq}) == 3
    assert all(inst.vector_width == 1 for inst in (first, second, loose))


def test_schedule_slots_index_each_member():
    folder, _ = _folder()
    assert folder.schedule.slots == {
        10: (0, 0, 3), 11: (0, 1, 3), 12: (0, 2, 3), 20: (1, 0, 1)}


# ---------------------------------------------------------------------------
# Machine-independent perf gate.

#: ``Enum.__hash__`` calls in one evaluate_benchmark of conv at scale
#: 0.1, with or without the kernel: 18,865 with it before opcode facts
#: became member attributes, 216 after; 33,668 without it before the
#: object engine indexed its FU tables and bind counts by int, 216
#: after (the remainder is per engine run and region, not per
#: instruction).
ENUM_HASH_CEILING = 250


def test_enum_hash_calls_per_evaluation_stay_under_the_ceiling(
        monkeypatch):
    tdg = WORKLOADS["conv"].construct_tdg(scale=0.1)
    calls = 0
    original = enum.Enum.__hash__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
    evaluate_benchmark(tdg, name="conv")
    monkeypatch.setattr(enum.Enum, "__hash__", original)
    assert 0 < calls <= ENUM_HASH_CEILING, calls
