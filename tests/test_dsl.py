"""Tests for the declarative transform DSL (paper section 5.5)."""

import pytest

from repro.core_model import OOO2
from repro.isa import Opcode
from repro.programs import KernelBuilder, assemble
from repro.tdg import FastTimingEngine, TimingEngine, construct_tdg
from repro.tdg.dsl import DslTransform, Rule, op, fma_rule
from repro.tdg.fastpath import (
    LoweredStream, StreamBuilder, kernel_available,
)


def fma_kernel():
    k = KernelBuilder("fma")
    a = k.array("a", [float(i % 7) for i in range(64)])
    b = k.array("b", [0.5] * 64)
    out = k.array("out", 64)
    with k.function("main"):
        with k.loop(64) as i:
            av = k.ld(a, i)
            bv = k.ld(b, i)
            k.st(out, i, k.fadd(k.fmul(av, bv), 1.0))
        k.halt()
    return construct_tdg(*k.build())


def transformed(program, rules, stream):
    """*stream* through *rules*, into a fresh builder."""
    out = StreamBuilder()
    DslTransform(program, rules).apply(stream, out)
    return out


class TestPatterns:
    def test_op_matches_opcode(self):
        from repro.isa import Instruction
        pattern = op(Opcode.FMUL)
        assert pattern.matches_inst(
            Instruction(Opcode.FMUL, dest=3, srcs=(4, 5)))
        assert not pattern.matches_inst(
            Instruction(Opcode.FADD, dest=3, srcs=(4, 5)))

    def test_opcode_set(self):
        from repro.isa import Instruction
        pattern = op((Opcode.ADD, Opcode.SUB))
        assert pattern.matches_inst(
            Instruction(Opcode.SUB, dest=3, srcs=(4,)))

    def test_where_predicate(self):
        from repro.isa import Instruction
        pattern = op(Opcode.ADD).where(lambda i: i.imm == 1)
        assert pattern.matches_inst(
            Instruction(Opcode.ADD, dest=3, srcs=(3,), imm=1))
        assert not pattern.matches_inst(
            Instruction(Opcode.ADD, dest=3, srcs=(3,), imm=2))

    def test_chain_length(self):
        pattern = op(Opcode.FMUL).feeding(
            op(Opcode.FADD).feeding(op(Opcode.FMUL)))
        assert pattern.chain_length() == 3


class TestRuleValidation:
    def test_rule_needs_pattern_and_action(self):
        with pytest.raises(ValueError):
            DslTransform(fma_kernel().program, [Rule("incomplete")])

    def test_retype_rejects_chains(self):
        rule = (Rule("bad")
                .match(op(Opcode.FMUL).feeding(op(Opcode.FADD)))
                .retype(Opcode.FMA))
        with pytest.raises(ValueError):
            DslTransform(fma_kernel().program, [rule])


class TestFuseAction:
    def test_fuse_elides_and_redirects(self):
        tdg = fma_kernel()
        out = transformed(tdg.program, [fma_rule()],
                          tdg.trace.instructions).rows
        fma_seqs = {d.seq for d in out if d.opcode is Opcode.FMA}
        stores = [d for d in out if d.opcode is Opcode.ST]
        assert all(any(dep in fma_seqs for dep in s.src_deps)
                   for s in stores)

    def test_three_op_chain(self):
        """Fuse shl -> add -> add into one LEA-style op."""
        program = assemble("""
.func main
entry:
    li r3, 0
    li r4, 100
loop:
    shl r5, r3, 2
    add r6, r5, 7
    add r7, r6, 1
    st r7, [r3+200]
    add r3, r3, 1
    slt r8, r3, r4
    br r8, loop
    halt
""")
        rule = (Rule("lea")
                .match(op(Opcode.SHL).single_use()
                       .feeding(op(Opcode.ADD).single_use()
                                .feeding(op(Opcode.ADD))))
                .fuse(Opcode.ADD, latency=1))
        transform = DslTransform(program, [rule])
        assert len(transform.plans) == 1
        from repro.sim import run_program
        trace = run_program(program)
        out = StreamBuilder()
        transform.apply(trace.instructions, out)
        # Two ops elided per iteration.
        assert len(out) == len(trace.instructions) - 200


class TestRetypeAndOffload:
    def test_retype_changes_latency(self):
        tdg = fma_kernel()
        rule = Rule("slow_mul").match(op(Opcode.FMUL)).retype(
            Opcode.FMUL, latency=20)
        out = transformed(tdg.program, [rule],
                          tdg.trace.instructions).rows
        slow = TimingEngine(OOO2).run(out).cycles
        fast = TimingEngine(OOO2).run(tdg.trace.instructions).cycles
        assert slow > fast

    def test_offload_moves_to_accel(self):
        tdg = fma_kernel()
        rule = Rule("fp_engine").match(
            op((Opcode.FMUL, Opcode.FADD))).offload("fp_engine",
                                                    latency=2)
        out = transformed(tdg.program, [rule],
                          tdg.trace.instructions).rows
        offloaded = [d for d in out if d.accel == "fp_engine"]
        assert len(offloaded) == 128    # 2 fp ops x 64 iterations

    def test_rules_claim_disjoint_ops(self):
        tdg = fma_kernel()
        first = fma_rule()
        second = Rule("grab_mul").match(op(Opcode.FMUL)).retype(
            Opcode.FMUL, latency=9)
        transform = DslTransform(tdg.program, [first, second])
        # fmul claimed by the fuse rule; retype matches nothing else.
        kinds = {plan.rule.name for plan in transform.plans}
        assert kinds == {"fma"}


@pytest.mark.parametrize("rules", [
    [fma_rule()],
    [Rule("fp_engine").match(op((Opcode.FMUL, Opcode.FADD)))
     .offload("fp_engine", latency=2)],
], ids=["fuse", "offload"])
def test_finished_stream_times_as_its_rows(rules):
    """A rule's ``finish()`` form, timed by the fast engine, equals the
    object engine over its rows: the lowered form when the kernel
    loads, the rows form without it."""
    tdg = fma_kernel()
    out = transformed(tdg.program, rules, tdg.trace.instructions)
    timed = out.finish()[0]
    assert isinstance(timed, LoweredStream) == kernel_available()
    fast = FastTimingEngine(OOO2, collect_commit_times=True).run(timed)
    slow = TimingEngine(OOO2, collect_commit_times=True).run(out.rows)
    assert (fast.cycles, fast.instructions, fast.crit_histogram,
            list(fast.commit_times)) == \
        (slow.cycles, slow.instructions, slow.crit_histogram,
         list(slow.commit_times))
