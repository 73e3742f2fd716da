"""Tests for the paper's section-2.3 fma example transform (Fig. 4),
declared as the transform DSL's ``fma_rule()``."""

import importlib.util
from pathlib import Path

import pytest

from repro.core_model import OOO2
from repro.isa import Opcode
from repro.programs import KernelBuilder, assemble
from repro.tdg import TimingEngine, construct_tdg
from repro.tdg.dsl import DslTransform, fma_rule
from repro.tdg.fastpath import StreamBuilder
from repro.workloads import WORKLOADS


def fma_pairs(program):
    """The fma rule's analyzer output: (fmul uid, fadd uid) pairs."""
    return [plan.uids for plan in
            DslTransform(program, [fma_rule()]).plans]


def fma_stream(program, stream):
    """*stream* through the fma rule, as a DynInst list."""
    out = StreamBuilder()
    DslTransform(program, [fma_rule()]).apply(stream, out)
    return out.rows


def fig4_program():
    """The paper's running example:
    I0:fmul I1:ld I2:fmul I3:fadd I4:sub I5:brnz."""
    return assemble("""
.func main
entry:
    li r3, 2.0
    li r0, 0
    li r1, 16
    li r5, 1.0
body:
    fmul r5, r5, r3
    ld r2, [r1+64]
    fmul r4, r2, r3
    fadd r5, r4, r5
    sub r1, r1, 4
    slt r6, r0, r1
    br r6, body
    halt
""")


class TestAnalyzer:
    def test_finds_single_use_pair(self):
        program = fig4_program()
        pairs = fma_pairs(program)
        # Both fmuls are single-use producers of the fadd; as in
        # Fig. 4(c), the fadd fuses with its first operand's producer,
        # fmul r4, r2, r3.
        assert [tuple(str(program.instruction(uid)) for uid in pair)
                for pair in pairs] == \
            [("fmul r4, r2, r3", "fadd r5, r4, r5")]

    def test_multi_use_fmul_not_fused(self):
        program = assemble("""
.func main
    li r3, 1.0
    fmul r4, r3, r3
    fadd r5, r4, r3
    fsub r6, r4, r3
    halt
""")
        assert fma_pairs(program) == []

    def test_no_fp_no_pairs(self):
        program = assemble(".func main\n add r3, r4, r5\n halt")
        assert fma_pairs(program) == []

    def test_cross_block_not_fused(self):
        program = assemble("""
.func main
a:
    li r3, 1.0
    fmul r4, r3, r3
    jmp b
b:
    fadd r5, r4, r3
    halt
""")
        assert fma_pairs(program) == []


class TestTransform:
    def make_tdg(self):
        k = KernelBuilder("fma")
        a = k.array("a", [float(i % 7) for i in range(64)])
        b = k.array("b", [0.5] * 64)
        out = k.array("out", 64)
        with k.function("main"):
            with k.loop(64) as i:
                av = k.ld(a, i)
                bv = k.ld(b, i)
                prod = k.fmul(av, bv)          # single use
                total = k.fadd(prod, 1.0)
                k.st(out, i, total)
            k.halt()
        program, memory = k.build()
        return construct_tdg(program, memory)

    def test_elides_fadds(self):
        tdg = self.make_tdg()
        assert len(fma_pairs(tdg.program)) == 1
        out = fma_stream(tdg.program, tdg.trace.instructions)
        n_before = len(tdg.trace)
        assert len(out) == n_before - 64   # one fadd elided per iter

    def test_fmuls_become_fmas(self):
        tdg = self.make_tdg()
        out = fma_stream(tdg.program, tdg.trace.instructions)
        opcodes = [d.opcode for d in out]
        assert Opcode.FMA in opcodes
        assert Opcode.FADD not in opcodes

    def test_deps_redirected_to_fma(self):
        tdg = self.make_tdg()
        out = fma_stream(tdg.program, tdg.trace.instructions)
        fma_seqs = {d.seq for d in out if d.opcode is Opcode.FMA}
        stores = [d for d in out if d.opcode is Opcode.ST]
        # Every store's value now comes from an fma.
        assert all(any(dep in fma_seqs for dep in s.src_deps)
                   for s in stores)

    def test_transform_speeds_up_execution(self):
        tdg = self.make_tdg()
        before = TimingEngine(OOO2).run(tdg.trace.instructions)
        after = TimingEngine(OOO2).run(
            fma_stream(tdg.program, tdg.trace.instructions))
        assert after.cycles <= before.cycles

    def test_untouched_stream_without_pairs(self, branchy_tdg):
        if not fma_pairs(branchy_tdg.program):
            out = fma_stream(branchy_tdg.program,
                             branchy_tdg.trace.instructions)
            assert len(out) == len(branchy_tdg.trace)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_dep_on_an_elided_instruction(name):
    """Every dep of the transformed stream that names a trace
    instruction names one still in the stream: an elided fadd's
    consumers are renamed to its fma."""
    tdg = WORKLOADS[name].construct_tdg(scale=0.1)
    trace_seqs = {dyn.seq for dyn in tdg.trace.instructions}
    out = fma_stream(tdg.program, tdg.trace.instructions)
    out_seqs = {dyn.seq for dyn in out}
    dangling = [(dyn.seq, dep) for dyn in out for dep in dyn.src_deps
                if dep in trace_seqs and dep not in out_seqs]
    assert not dangling, f"{len(dangling)} deps on elided seqs"


def test_walkthrough_prints_recorded_output(capsys):
    """``examples/fma_walkthrough.py`` prints the recorded bytes."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "fma_walkthrough", root / "examples" / "fma_walkthrough.py")
    walkthrough = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(walkthrough)
    walkthrough.main()
    golden = root / "tests" / "golden" / "fma_walkthrough.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
