"""Costing each region once must equal costing it once per core.

The evaluator transforms, lowers and reduces each region to energy
events once, then times and prices the result on every core
(BSA -> region -> core).  The oracle below is the earlier loop order
(BSA -> core -> region), which re-transforms every region for every
core and prices every instruction one at a time, copied here with only
the ``transform_interval(..., vector_len, ...)`` call (now through a
recording builder, ``tests.transformed.transformed_rows``) and the
``mcpat`` constant lookups adapted.

Every field must match exactly, energies included: pricing the
core-independent energy events per core reproduces per-instruction
pricing bit for bit, so canonical sweep bytes do not move.
"""

import pytest

from repro.accel import BSA_REGISTRY, AnalysisContext
from repro.accel.base import RegionEstimate, SeqAllocator
from repro.accel.dp_cgra import DPCGRAModel
from repro.analysis.regions import attribute_baseline
from repro.core_model import core_by_name
from repro.core_model.config import DSE_CORES
from repro.energy import mcpat
from repro.energy.mcpat import (
    EnergyBreakdown, EnergyModel, RepeatedSum,
)
from repro.exocore import evaluate_benchmark
from repro.isa import Instruction, Opcode
from repro.isa.opcodes import is_vector
from repro.obs import isolated
from repro.sim.trace import DynInst
from repro.tdg.fastpath import make_engine
from repro.workloads import WORKLOADS
from tests.transformed import transformed_rows

#: One benchmark per behavior class.
BENCHMARKS = ("conv", "djpeg1", "181.mcf")
SCALE = 0.1
BSAS = ("simd", "dp_cgra", "ns_df", "trace_p")
MAX_INVOCATIONS = 8


# ---------------------------------------------------------------------------
# The oracle: per-instruction pricing and the per-core loop.

def seed_price(model, stream, cycles, core_active=True, active_accels=()):
    """Price *stream* one instruction at a time, as EnergyModel did
    before events/price."""
    breakdown = EnergyBreakdown()
    in_order = model.config.in_order
    for inst in stream:
        opcode = inst.opcode
        if inst.accel is not None:
            _seed_price_accel(inst, breakdown)
            continue
        breakdown.add("fetch", model.fetch_pj)
        breakdown.add("decode", model.decode_pj)
        if not in_order:
            breakdown.add("rename", model.rename_pj)
            breakdown.add("iq", model.iq_pj)
            breakdown.add("rob", model.rob_pj)
        breakdown.add("regfile",
                      model.regread_pj * len(inst.src_deps)
                      + (model.regwrite_pj
                         if inst.static is not None
                         and inst.static.dest is not None else 0.0))
        breakdown.add("bypass", model.bypass_pj)
        breakdown.add("commit", model.commit_pj)
        fu_pj = mcpat._FU_PJ[inst.op_class]
        lanes = inst.vector_width
        if lanes > 1 or is_vector(opcode):
            lanes = max(lanes, 1)
            breakdown.add("simd_fu",
                          fu_pj * lanes * mcpat._VECTOR_LANE_FACTOR)
        else:
            breakdown.add("fu", fu_pj)
        if opcode is Opcode.BR:
            breakdown.add("bpred", model.bpred_pj)
        if opcode in (Opcode.SEND, Opcode.RECV):
            breakdown.add("accel_comm", mcpat._SEND_RECV_PJ)
        if opcode is Opcode.CFG:
            breakdown.add("accel_config", mcpat._CONFIG_PJ)
        if inst.mem_addr is not None:
            breakdown.add("lsq", model.lsq_pj)
            lanes = max(inst.vector_width, 1)
            breakdown.add("l1d", model.l1d_pj * (1 + 0.3 * (lanes - 1)))
            if inst.mem_level in ("l2", "dram"):
                breakdown.add("l2", model.l2_pj)
            if inst.mem_level == "dram":
                breakdown.add("dram", model.dram_pj)
    core_leak = model.core_leak_pj_per_cycle
    if not core_active:
        core_leak *= mcpat.POWER_GATED_CORE_LEAK_FRACTION
    breakdown.add("leak_core", core_leak * cycles)
    for accel in active_accels:
        breakdown.add(f"leak_{accel}",
                      mcpat.ACCEL_LEAK_PJ.get(accel, 8.0) * cycles)
    return breakdown


def _seed_price_accel(inst, breakdown):
    accel = inst.accel
    opcode = inst.opcode
    op_pj = mcpat._ACCEL_OP_PJ.get(accel, 4.0)
    net_pj = mcpat._ACCEL_NETWORK_PJ.get(accel, 2.0)
    if opcode is Opcode.CFU:
        fused = max(inst.vector_width, 1)
        breakdown.add(f"{accel}_cfu",
                      op_pj + mcpat._CFU_EXTRA_OP_PJ * (fused - 1))
    elif opcode is Opcode.CFG:
        breakdown.add("accel_config", mcpat._CONFIG_PJ)
    else:
        breakdown.add(f"{accel}_op", op_pj)
    breakdown.add(f"{accel}_net", net_pj)
    if inst.mem_addr is not None:
        breakdown.add("l1d", mcpat.L1D_SRAM.access_energy_pj)
        if inst.mem_level in ("l2", "dram"):
            breakdown.add("l2", mcpat.L2_SRAM.access_energy_pj)
        if inst.mem_level == "dram":
            breakdown.add("dram", mcpat.DRAM_ACCESS_PJ)
        if accel == "trace_p" and inst.opcode is Opcode.ST:
            breakdown.add("store_buffer", mcpat._STORE_BUFFER_PJ)


def seed_evaluate_region(model, ctx, plan, core_config,
                         max_invocations=None):
    """One region on one core: transform, time and price each
    evaluated invocation."""
    loop = plan["loop"]
    key = loop.key
    intervals = ctx.intervals.get(key, ())
    if not intervals:
        return None
    evaluated = intervals if max_invocations is None \
        else intervals[:max_invocations]
    seq_alloc = SeqAllocator()
    energy_model = EnergyModel(core_config)
    entry_overhead = model.region_entry_overhead(plan)
    total_cycles = 0
    total_energy = 0.0
    for interval in evaluated:
        stream = transformed_rows(model, ctx, plan, interval,
                                  core_config.vector_len, seq_alloc)
        result = make_engine(
            core_config,
            accel_resources=model.accel_resources(core_config),
        ).run(stream)
        cycles = result.cycles + entry_overhead
        breakdown = seed_price(
            energy_model, stream, cycles,
            core_active=not model.power_gates_core,
            active_accels=(model.name,))
        total_cycles += cycles
        total_energy += breakdown.total_pj
    if len(evaluated) < len(intervals):
        scale = len(intervals) / len(evaluated)
        total_cycles = int(total_cycles * scale)
        total_energy *= scale
    dyn = sum(end - start for start, end in intervals)
    return RegionEstimate(key, model.name, total_cycles, total_energy,
                          dyn, len(intervals))


def seed_evaluate_benchmark(tdg, core_names, bsa_names, max_invocations,
                            detailed):
    """Baselines and BSA -> core -> region estimates.

    Returns ``(baselines, estimates)`` shaped like
    :class:`~repro.exocore.evaluator.BenchmarkEvaluation`'s fields.
    """
    ctx = AnalysisContext(tdg)
    trace = tdg.trace.instructions
    baselines = {}
    for core_name in core_names:
        config = core_by_name(core_name)
        result = make_engine(config, collect_commit_times=True).run(trace)
        per_loop_cycles = attribute_baseline(
            result.commit_times, ctx.intervals, result.cycles)
        energy_model = EnergyModel(config)
        total = seed_price(energy_model, trace, result.cycles)
        per_loop_energy = {}
        for key, spans in ctx.intervals.items():
            if not spans:
                per_loop_energy[key] = 0.0
                continue
            stream = [inst for start, end in spans
                      for inst in trace[start:end]]
            per_loop_energy[key] = seed_price(
                energy_model, stream,
                per_loop_cycles.get(key, 0)).total_pj
        baselines[core_name] = {
            "core_name": core_name, "cycles": result.cycles,
            "energy_pj": total.total_pj,
            "per_loop_cycles": per_loop_cycles,
            "per_loop_energy": per_loop_energy,
        }
    estimates = {}
    for bsa in bsa_names:
        model = BSA_REGISTRY[bsa](detailed=detailed)
        plans = model.find_candidates(ctx)
        for core_name in core_names:
            config = core_by_name(core_name)
            per_region = {}
            for key, plan in plans.items():
                estimate = seed_evaluate_region(
                    model, ctx, plan, config,
                    max_invocations=max_invocations)
                if estimate is not None:
                    per_region[key] = estimate
            estimates[(bsa, core_name)] = per_region
    return baselines, estimates


# ---------------------------------------------------------------------------
# Comparison.

def assert_same(actual, expected, path="$"):
    """Same structure, types and values, floats bit for bit."""
    if isinstance(expected, RegionEstimate):
        assert isinstance(actual, RegionEstimate), path
        actual, expected = vars(actual), vars(expected)
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key in expected:
            assert_same(actual[key], expected[key], f"{path}.{key}")
    else:
        assert type(actual) is type(expected), path
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def tdgs():
    return {name: WORKLOADS[name].construct_tdg(scale=SCALE)
            for name in BENCHMARKS}


# ---------------------------------------------------------------------------
# The evaluator against the oracle.

@pytest.mark.parametrize("detailed", (False, True),
                         ids=("fast", "detailed"))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_evaluator_matches_per_core_loop(tdgs, name, detailed):
    tdg = tdgs[name]
    evaluation = evaluate_benchmark(
        tdg, core_names=DSE_CORES, bsa_names=BSAS,
        max_invocations=MAX_INVOCATIONS, detailed=detailed, name=name)
    baselines, estimates = seed_evaluate_benchmark(
        tdg, DSE_CORES, BSAS, MAX_INVOCATIONS, detailed)
    assert list(evaluation.baselines) == list(baselines)
    for core_name, expected in baselines.items():
        assert_same(vars(evaluation.baselines[core_name]), expected,
                    f"baseline[{core_name}]")
    assert list(evaluation.estimates) == list(estimates)
    assert any(estimates.values()), "no region was costed"
    for pair, expected in estimates.items():
        assert_same(evaluation.estimates[pair], expected, f"{pair}")


def test_dp_cgra_config_charge_lands_on_first_core_only(tdgs):
    """DP-CGRA's config LRU lives on the plan and carries over from one
    core to the next: only the first core evaluated pays the ``cfg``
    load.  Reusing one transform across cores must keep that."""
    ctx = AnalysisContext(tdgs["djpeg1"])
    model = DPCGRAModel()
    plans = model.find_candidates(ctx)
    oracle_plans = model.find_candidates(ctx)   # fresh config caches
    assert plans
    config = core_by_name("OOO4")
    cores = (config, config, config)
    for key, plan in plans.items():
        estimates = model.evaluate_region_on_cores(
            ctx, plan, cores, max_invocations=MAX_INVOCATIONS)
        expected = [seed_evaluate_region(model, ctx, oracle_plans[key],
                                         core, MAX_INVOCATIONS)
                    for core in cores]
        for index, (actual, oracle) in enumerate(zip(estimates,
                                                     expected)):
            assert_same(actual, oracle, f"{key}[{index}]")
        first, second, third = estimates
        assert first.energy_pj > second.energy_pj
        assert first.cycles >= second.cycles
        assert (second.cycles, second.energy_pj) \
            == (third.cycles, third.energy_pj)
        assert plan["config_cache"] == oracle_plans[key]["config_cache"]


# ---------------------------------------------------------------------------
# events/price against per-instruction pricing.

_STATIC = Instruction(Opcode.ADD, dest=3, srcs=(4,))
_STATIC.uid = 0
_NO_DEST = Instruction(Opcode.ST, srcs=(1, 2))
_NO_DEST.uid = 1


def _synthetic_stream():
    """Every pricing branch: scalar/vector FU, branches, SEND/RECV, core
    and accelerator CFG, each memory level, CFUs, Trace-P stores."""
    insts = [
        DynInst(0, _STATIC, Opcode.ADD, src_deps=(7, 8)),
        DynInst(1, _STATIC, Opcode.FMUL, src_deps=(0,)),
        DynInst(2, _STATIC, Opcode.VFADD, vector_width=4),
        DynInst(3, _STATIC, Opcode.ADD, vector_width=2),
        DynInst(4, _STATIC, Opcode.BR),
        DynInst(5, _STATIC, Opcode.SEND),
        DynInst(6, _STATIC, Opcode.RECV),
        DynInst(7, _STATIC, Opcode.CFG),
        DynInst(8, _STATIC, Opcode.LD, mem_addr=64, mem_level="l1"),
        DynInst(9, _STATIC, Opcode.LD, mem_addr=64, mem_level="l2"),
        DynInst(10, _NO_DEST, Opcode.ST, mem_addr=64, mem_level="dram"),
        DynInst(11, _STATIC, Opcode.VLD, mem_addr=64, vector_width=4,
                mem_level="dram"),
        DynInst(12, None, Opcode.FDIV, src_deps=(1, 2, 3)),
        DynInst(13, _STATIC, Opcode.CFU, accel="ns_df", vector_width=3),
        DynInst(14, _STATIC, Opcode.ADD, accel="dp_cgra"),
        DynInst(15, _STATIC, Opcode.CFG, accel="dp_cgra"),
        DynInst(16, _STATIC, Opcode.ST, accel="trace_p", mem_addr=8,
                mem_level="dram"),
        DynInst(17, _STATIC, Opcode.LD, accel="trace_p", mem_addr=8,
                mem_level="l2"),
        DynInst(18, _STATIC, Opcode.ST, accel="trace_p"),
        DynInst(19, _STATIC, Opcode.ADD, accel="custom"),
    ]
    return insts * 3


def _streams(tdgs):
    """The synthetic stream, a baseline trace, and one transformed
    region per BSA (accelerator, SIMD and config instructions)."""
    streams = {"synthetic": _synthetic_stream(),
               "trace": tdgs["djpeg1"].trace.instructions}
    ctx = AnalysisContext(tdgs["djpeg1"])
    for bsa in BSAS:
        model = BSA_REGISTRY[bsa]()
        plan = next(iter(model.find_candidates(ctx).values()))
        interval = ctx.intervals[plan["loop"].key][0]
        streams[bsa] = transformed_rows(model, ctx, plan, interval, 4,
                                        SeqAllocator())
    return streams


@pytest.mark.parametrize("core_active", (True, False),
                         ids=("core_on", "core_gated"))
@pytest.mark.parametrize("core_name", DSE_CORES)
def test_price_of_events_matches_per_instruction_pricing(
        tdgs, core_name, core_active):
    model = EnergyModel(core_by_name(core_name))
    for label, stream in _streams(tdgs).items():
        events = EnergyModel.events(stream)
        for accels in ((), ("dp_cgra", "trace_p")):
            actual = model.price(events, 1234, core_active=core_active,
                                 active_accels=accels).components
            expected = seed_price(model, stream, 1234,
                                  core_active=core_active,
                                  active_accels=accels).components
            # Same components, first-charged order and bits: the
            # total is summed in dict order.
            assert list(actual.items()) == list(expected.items()), label
            assert model.evaluate(
                stream, 1234, core_active=core_active,
                active_accels=accels).components == actual


def test_events_count_each_kind_of_charge():
    events = EnergyModel.events(_synthetic_stream())
    assert events.counts["fetch"] == 13 * 3
    assert events.counts["bpred"] == 3
    assert events.counts["lsq"] == 4 * 3
    assert events.components["accel_config"] == 2 * 3 * mcpat._CONFIG_PJ
    assert events.components["store_buffer"] == 3 * mcpat._STORE_BUFFER_PJ
    assert events.components["custom_op"] == 3 * 4.0
    assert events.components["decode"] is None
    assert len(events.regfile) == 13 * 3


@pytest.mark.parametrize("coefficient", (
    0.1, 1 / 3, 2.5, 3.0 * 2 ** 0.7, 12345.678,
    # Short mantissas: the sum reaches the binade where c rounds to the
    # grid as an exact tie, entering it on an even (3 + 2**-38) and on
    # an odd (1.5 + 2**-38) grid point.
    3 + 2.0 ** -38, 1.5 + 2.0 ** -38,
))
def test_repeated_sum_equals_repeated_addition(coefficient):
    repeated = RepeatedSum(coefficient)
    total = 0.0
    for n in range(30_000):
        assert repeated(n) == total, n
        total += coefficient
    assert RepeatedSum(coefficient)(29_999) == repeated(29_999)


# ---------------------------------------------------------------------------
# Work counters: the redundancy this change removes, as exact counts.

_COUNTERS = ("repro_insts_transformed_total", "repro_insts_lowered_total",
             "repro_insts_priced_total")


def _work(tdg, cores, bsa):
    with isolated() as (registry, recorder):
        evaluation = evaluate_benchmark(tdg, core_names=cores,
                                        bsa_names=(bsa,))
    counts = {(name, path): registry.value(name, path=path)
              for name in _COUNTERS for path in (bsa, "baseline")}
    names = [record["name"] for record in recorder.records]
    return counts, names, evaluation


@pytest.mark.parametrize("bsa", BSAS)
def test_work_counters_do_not_scale_with_cores(tdgs, bsa):
    tdg = tdgs["djpeg1"]
    one, _, _ = _work(tdg, ("IO2",), bsa)
    four, names, evaluation = _work(tdg, DSE_CORES, bsa)
    transformed = ("repro_insts_transformed_total", bsa)
    assert one[transformed] > 0
    for name in _COUNTERS:
        assert four[(name, "baseline")] == one[(name, "baseline")]
    assert names.count("accel.estimate_regions") == 1
    assert names.count("exocore.baseline") == len(DSE_CORES)
    if bsa != "dp_cgra":
        assert four == one
        assert names.count("accel.transform") \
            == len(evaluation.plans[bsa])
        return
    # IO2 gets each region's cfg load; OOO2 transforms again with a
    # warm config cache; OOO4 and OOO6 reuse OOO2's streams.
    regions = len(evaluation.plans[bsa])
    assert four[transformed] == 2 * one[transformed]
    assert names.count("accel.transform") == 2 * regions
    for name in ("repro_insts_lowered_total", "repro_insts_priced_total"):
        if one[(name, bsa)]:
            assert four[(name, bsa)] == 2 * one[(name, bsa)] - regions
