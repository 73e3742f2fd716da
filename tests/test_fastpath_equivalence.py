"""Object-engine / fastpath equivalence: the contract is *byte* equality.

The fast engine (:mod:`repro.tdg.fastpath`) is only allowed to exist
because it is indistinguishable from :class:`TimingEngine` — same
cycles, same commit times, same critical-edge histogram, and therefore
the same serialized sweep artifact.  These tests pin that contract:

- seeded-random instruction streams (property-style: every engine
  feature — unpipelined FUs, memory levels, mispredicts, icache
  stalls, live-in deps, lat overrides — appears with some probability)
  across core configs, lowered explicitly and timed by the C kernel,
  and without it (forced via ``$REPRO_NO_KERNEL``, where
  ``StreamBuilder.finish`` hands back rows, which ``FastTimingEngine``
  times on the object engine);
- every BSA model's ``evaluate_region`` across cores, plus the DSL
  fma transform, on the shared kernel fixtures;
- (marked ``bench``) the kernel's speedup floor over the object engine
  on conv at scale 0.1, OOO2;
- the dispatch contract: ``FastTimingEngine`` follows the stream's
  form (a ``LoweredStream`` on the kernel, a DynInst list on the object
  engine), ticks once per run either way, and refuses a lowered stream
  it cannot time;
- the golden four-benchmark sweep serialized with ``dumps_sweep``: a
  default sweep and a ``$REPRO_NO_KERNEL=1`` sweep must agree
  byte-for-byte, and the default sweep must reproduce the checked-in
  golden snapshot.
"""

import contextlib
import random
import time

import pytest

from repro.accel import BSA_REGISTRY, AnalysisContext
from repro.core_model import CoreConfig, IO2, OOO2, OOO4, OOO6
from repro.isa import Instruction, Opcode
from repro.obs import get_registry, isolated
from repro.sim.trace import DynInst
from repro.tdg import DslTransform, fma_rule
from repro.tdg.engine import AccelResources, TimingEngine
from repro.tdg.fastpath import (
    FastTimingEngine, LoweringError, StreamBuilder, kernel_available,
    lower_stream, _reset_kernel,
)

_STATIC = Instruction(Opcode.ADD, dest=3, srcs=(4,))
_STATIC.uid = 0

CONFIGS = [IO2, OOO2, OOO6,
           CoreConfig("tiny", width=2, rob_size=24, iq_size=8,
                      dcache_ports=1, alu_units=2)]

_MEM_LEVELS = (("l1", 4), ("l2", 12), ("dram", 176))

#: Acceptance floor: timing a pre-lowered stream with the C kernel must
#: beat the object engine by at least this factor on conv/OOO2/0.1.
SINGLE_EVAL_FLOOR = 5.0


def make_inst(seq, opcode=Opcode.ADD, deps=(), **kwargs):
    return DynInst(seq, _STATIC, opcode, src_deps=deps, **kwargs)


def random_stream(seed, n=600, accel_ratio=0.0):
    """Adversarial stream touching every timing-engine feature."""
    rng = random.Random(seed)
    opcodes = (Opcode.ADD, Opcode.ADD, Opcode.MUL, Opcode.FADD,
               Opcode.FMUL, Opcode.FDIV, Opcode.DIV, Opcode.LD,
               Opcode.LD, Opcode.ST, Opcode.BR)
    stream = []
    last_store = None
    for seq in range(n):
        opcode = rng.choice(opcodes)
        kwargs = {}
        deps = []
        for _ in range(rng.randrange(3)):
            # Mostly in-stream back-references; occasionally a live-in
            # (negative / far-future seq the engine treats as ready).
            if seq and rng.random() < 0.9:
                deps.append(rng.randrange(max(0, seq - 40), seq))
            else:
                deps.append(seq + 10_000)
        if opcode in (Opcode.LD, Opcode.ST):
            level, lat = rng.choice(_MEM_LEVELS)
            kwargs.update(mem_addr=rng.randrange(4096) * 8,
                          mem_lat=lat, mem_level=level)
            if opcode is Opcode.LD and last_store is not None \
                    and rng.random() < 0.3:
                kwargs["mem_dep"] = last_store
        if opcode is Opcode.BR and rng.random() < 0.4:
            kwargs["mispredicted"] = True
        if rng.random() < 0.02:
            kwargs["icache_lat"] = rng.choice((12, 26))
        if rng.random() < 0.05:
            kwargs["lat_override"] = rng.randrange(1, 40)
        if accel_ratio and rng.random() < accel_ratio:
            kwargs["accel"] = "a"
            if seq and rng.random() < 0.5:
                kwargs["extra_deps"] = (
                    (rng.randrange(seq), rng.randrange(1, 20)),)
        inst = make_inst(seq, opcode, deps=tuple(deps), **kwargs)
        if opcode is Opcode.ST:
            last_store = seq
        stream.append(inst)
    return stream


def assert_results_equal(reference, candidate):
    assert candidate.cycles == reference.cycles
    assert type(candidate.cycles) is int
    assert candidate.instructions == reference.instructions
    assert candidate.committed_uops == reference.committed_uops
    assert candidate.crit_histogram == reference.crit_histogram
    if reference.commit_times is None:
        assert candidate.commit_times is None
    else:
        assert list(candidate.commit_times) == \
            list(reference.commit_times)
        assert all(type(t) is int for t in candidate.commit_times)


def fastpath_runs():
    return get_registry().total("repro_fastpath_runs_total")


def run_both(stream, config, accel_counts=None, accel_windows=None,
             collect=True, start_time=0):
    """Time *stream* on the object engine and on the fast engine,
    lowered for the kernel when it loads (asserting the kernel ran), and
    assert the results equal."""
    def resources():
        if accel_counts is None:
            return None
        return AccelResources(accel_counts, windows=accel_windows)

    reference = TimingEngine(
        config, accel_resources=resources(),
        collect_commit_times=collect).run(stream, start_time=start_time)
    kernel = kernel_available()
    timed = lower_stream(stream) if kernel else stream
    before = fastpath_runs()
    candidate = FastTimingEngine(
        config, accel_resources=resources(),
        collect_commit_times=collect).run(timed, start_time=start_time)
    assert fastpath_runs() - before == (1 if kernel else 0)
    assert_results_equal(reference, candidate)
    return reference


def finish(stream):
    """*stream* in the form :meth:`StreamBuilder.finish` picks."""
    out = StreamBuilder()
    out.extend(stream)
    return out.finish()[0]


@contextlib.contextmanager
def no_kernel():
    """Force the object engine for the body (``$REPRO_NO_KERNEL=1``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_KERNEL", "1")
        _reset_kernel()
        try:
            yield
        finally:
            _reset_kernel()


@pytest.fixture(params=["kernel", "python"])
def fastpath_backend(request):
    """Run the fastpath test body with and without the C kernel.

    ``"python"`` forces the no-kernel setting: ``StreamBuilder.finish``
    then hands back DynInst rows, which ``FastTimingEngine`` times on
    the object engine.  The "kernel" parametrization silently degrades
    to that setting when no C compiler is available (the fallback IS
    the behavior under test).
    """
    if request.param == "kernel":
        yield request.param
        return
    with no_kernel():
        assert not kernel_available()
        assert finish(random_stream(0, n=20)).__class__ is list
        yield request.param


class TestRandomStreams:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_core_streams(self, fastpath_backend, config, seed):
        run_both(random_stream(seed), config)

    @pytest.mark.parametrize("config", [IO2, OOO2, OOO6],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", range(3))
    def test_accel_streams(self, fastpath_backend, config, seed):
        stream = random_stream(100 + seed, accel_ratio=0.5)
        run_both(stream, config, accel_counts={"a": 2},
                 accel_windows={"a": 32})

    def test_accel_window_limit(self, fastpath_backend):
        stream = [make_inst(i, Opcode.CFU, accel="a")
                  for i in range(300)]
        run_both(stream, OOO2, accel_counts={"a": 8},
                 accel_windows={"a": 16})

    def test_start_time_offset(self, fastpath_backend):
        run_both(random_stream(7), OOO2, start_time=1000)

    def test_without_commit_times(self, fastpath_backend):
        run_both(random_stream(8), OOO4, collect=False)

    def test_empty_stream(self, fastpath_backend):
        run_both([], OOO2)

    def test_prelowered_stream_reused_across_cores(
            self, fastpath_backend):
        stream = random_stream(9)
        lowered = lower_stream(stream)
        if not kernel_available():
            # Pre-lowered streams are the kernel's input; the object
            # engine cannot time them, so callers lower only when the
            # kernel is available.
            with pytest.raises(LoweringError):
                FastTimingEngine(OOO2).run(lowered)
            return
        for config in (IO2, OOO2, OOO6):
            reference = TimingEngine(
                config, collect_commit_times=True).run(stream)
            candidate = FastTimingEngine(
                config, collect_commit_times=True).run(lowered)
            assert_results_equal(reference, candidate)


def min_ns(fn, reps):
    """Minimum wall time of *reps* calls of *fn*, in ns."""
    best = None
    for _ in range(reps):
        started = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


class TestKernelFloor:
    @pytest.mark.bench
    def test_fast_beats_object_by_the_floor(self):
        from repro.workloads import WORKLOADS

        if not kernel_available():
            pytest.skip("no compiled kernel to time")
        conv_trace = list(WORKLOADS["conv"].construct_tdg(scale=0.1)
                          .trace.instructions)
        lowered = lower_stream(conv_trace)
        fast = FastTimingEngine(OOO2)
        reference = TimingEngine(OOO2)
        assert fast.run(lowered).cycles == reference.run(conv_trace).cycles
        # The kernel call is tens of microseconds, so its minimum needs
        # more samples than the millisecond object run to escape
        # scheduler noise.
        fast_ns = min_ns(lambda: fast.run(lowered), 50)
        object_ns = min_ns(lambda: reference.run(conv_trace), 5)
        assert object_ns / fast_ns >= SINGLE_EVAL_FLOOR, (
            f"kernel {fast_ns / 1000:.0f} us vs object engine "
            f"{object_ns / 1000:.0f} us")


class TestLoweringFallback:
    def test_float_latency_falls_back_to_object(self):
        # A float mem_lat must not be silently truncated: lowering
        # refuses, the builder hands back the rows and the fast engine
        # times them on the object path, still producing the object
        # engine's exact numbers.
        stream = random_stream(11, n=100)
        stream[50] = make_inst(50, Opcode.LD, mem_addr=8,
                               mem_lat=4.5, mem_level="l1")
        with pytest.raises(LoweringError):
            lower_stream(stream)
        rows = finish(stream)
        assert rows.__class__ is list
        reference = TimingEngine(
            OOO2, collect_commit_times=True).run(stream)
        before = fastpath_runs()
        candidate = FastTimingEngine(
            OOO2, collect_commit_times=True).run(rows)
        assert fastpath_runs() == before
        assert_results_equal(reference, candidate)

    def test_used_accel_resources_fall_back(self):
        resources = AccelResources({"a": 2})
        resources.reserve("a", 0)       # pre-warmed: stateful tables
        stream = [make_inst(i, Opcode.CFU, accel="a")
                  for i in range(50)]
        reference = TimingEngine(
            OOO2, accel_resources=resources,
            collect_commit_times=True).run(stream)
        resources2 = AccelResources({"a": 2})
        resources2.reserve("a", 0)
        candidate = FastTimingEngine(
            OOO2, accel_resources=resources2,
            collect_commit_times=True).run(stream)
        assert_results_equal(reference, candidate)


class TestAccelModels:
    @staticmethod
    def _estimates(bsa, core, tdg):
        """All region estimates for one (bsa, core, tdg), without and
        with the kernel.

        A fresh context + model per setting: some transforms memoize
        schedules on first evaluation, so back-to-back calls on shared
        state differ for reasons unrelated to the engine under test.
        """
        def sweep():
            model = BSA_REGISTRY[bsa](detailed=False)
            ctx = AnalysisContext(tdg)
            out = {}
            for key, plan in model.find_candidates(ctx).items():
                est = model.evaluate_region(
                    ctx, plan, core, max_invocations=2)
                out[key] = None if est is None else (
                    est.cycles, est.energy_pj, est.dyn_insts,
                    est.invocations, est.accel_cycles)
            return out

        with no_kernel():
            obj = sweep()
        return obj, sweep()

    @pytest.mark.parametrize("core", [IO2, OOO2, OOO6],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("bsa", sorted(BSA_REGISTRY))
    def test_evaluate_region_parity(self, bsa, core, vector_tdg,
                                    branchy_tdg, nested_tdg):
        compared = 0
        for tdg in (vector_tdg, branchy_tdg, nested_tdg):
            obj, fast = self._estimates(bsa, core, tdg)
            assert fast == obj
            compared += sum(1 for v in obj.values() if v is not None)
        assert compared > 0, f"no {bsa} candidates in any fixture"

    def test_dsl_fma_transform_parity(self, vector_tdg):
        out = StreamBuilder()
        DslTransform(vector_tdg.program, [fma_rule()]).apply(
            vector_tdg.trace.instructions, out)
        stream = out.rows
        assert len(stream) < len(vector_tdg.trace.instructions)
        for config in (IO2, OOO2, OOO4):
            run_both(stream, config)


class TestEngineSelection:
    """The engine follows the stream's form; ``finish`` picks it."""

    @staticmethod
    def _counted_run(engine, stream):
        """Run *stream*; returns (result, engine runs, fastpath runs,
        ``tdg.engine.run`` spans) of that one run."""
        with isolated() as (registry, recorder):
            result = engine.run(stream)
            spans = [record["name"] for record in recorder.export()]
            return (result, registry.total("repro_engine_runs_total"),
                    registry.total("repro_fastpath_runs_total"),
                    spans.count("tdg.engine.run"))

    def test_lowered_stream_runs_on_the_kernel(self):
        if not kernel_available():
            pytest.skip("a lowered stream needs the compiled kernel")
        stream = random_stream(21)
        result, runs, fast, spans = self._counted_run(
            FastTimingEngine(OOO2), lower_stream(stream))
        assert (runs, fast, spans) == (1, 1, 1)
        assert_results_equal(TimingEngine(OOO2).run(stream), result)

    def test_row_list_runs_on_the_object_engine(self):
        stream = random_stream(22)
        result, runs, fast, spans = self._counted_run(
            FastTimingEngine(OOO2, collect_commit_times=True), stream)
        assert (runs, fast, spans) == (1, 0, 1)
        assert_results_equal(
            TimingEngine(OOO2, collect_commit_times=True).run(stream),
            result)

    def test_lowered_stream_with_used_accel_resources_raises(self):
        if not kernel_available():
            pytest.skip("a lowered stream needs the compiled kernel")
        resources = AccelResources({"a": 2})
        resources.reserve("a", 0)
        stream = [make_inst(i, Opcode.CFU, accel="a") for i in range(20)]
        with pytest.raises(LoweringError):
            FastTimingEngine(OOO2, accel_resources=resources).run(
                lower_stream(stream))

    def test_cold_evaluation_times_every_stream_on_the_kernel(self):
        if not kernel_available():
            pytest.skip("the kernel path needs the compiled kernel")
        from repro.exocore import evaluate_benchmark
        from repro.workloads import WORKLOADS

        tdg = WORKLOADS["conv"].construct_tdg(scale=0.1)
        with isolated() as (registry, _):
            evaluate_benchmark(tdg, name="conv")
            runs = registry.total("repro_engine_runs_total")
            assert runs > 0
            assert registry.total("repro_fastpath_runs_total") == runs

    def test_kernel_available_is_bool(self):
        assert kernel_available() in (True, False)


class TestSweepByteParity:
    """The acceptance criterion: identical serialized sweep bytes."""

    NAMES = ("181.mcf", "cjpeg1", "conv", "fft")

    @pytest.fixture(scope="class")
    def sweep_pair(self):
        from repro.dse import run_sweep

        def sweep():
            return run_sweep(names=self.NAMES, scale=0.1,
                             max_invocations=2, with_amdahl=False,
                             use_cache=False)

        with no_kernel():
            obj = sweep()
        return {"object": obj, "fast": sweep()}

    def test_dumps_sweep_byte_identical(self, sweep_pair):
        from repro.dse.persist import dumps_sweep

        obj = dumps_sweep(sweep_pair["object"])
        fast = dumps_sweep(sweep_pair["fast"])
        assert fast == obj

    def test_fast_engine_matches_golden_snapshot(self, sweep_pair,
                                                 update_golden):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).parent))
        try:
            from test_golden_regression import (
                check_golden, golden_summary,
            )
        finally:
            sys.path.pop(0)

        if update_golden:
            pytest.skip("golden updates happen in "
                        "test_golden_regression.py")
        check_golden("sweep_summary",
                     golden_summary(sweep_pair["fast"]), False)
