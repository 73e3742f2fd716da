"""Unit tests for the functional interpreter and trace annotation."""

import pytest

from repro.isa import Instruction, Opcode
from repro.programs import KernelBuilder, assemble
from repro.sim import run_program
from repro.sim.interpreter import ExecutionError
from repro.tdg.fastpath import baseline_from_columns, kernel_available
from tests.test_baseline_loop_events import (
    assert_same_baseline, walked_baseline,
)


def run_asm(source, memory=None, **kwargs):
    return run_program(assemble(source), memory=memory, **kwargs)


NESTED_CALLS = """
.func inner
    add r10, r10, 1
    ret
.func outer
    call inner
    call inner
    ret
.func main
    li r10, 0
    call outer
    call outer
    st r10, [r0+0]
    halt
"""

#: A hot loop that calls a function with a loop of its own; the callee
#: loads, stores with base == value (a repeated dep) and divides (an
#: unpipelined op).
CALL_IN_LOOP = """
.func visit
    li r5, 0
inner:
    ld r6, [r5+100]
    add r6, r6, r4
    st r6, [r6+0]
    ld r7, [r0+200]
    add r7, r7, r4
    st r7, [r0+200]
    add r5, r5, 1
    slt r8, r5, 3
    br r8, inner
    div r9, r7, r5
    ret
.func main
    li r4, 0
loop:
    call visit
    add r4, r4, 1
    slt r3, r4, 3
    br r3, loop
    halt
"""


class TestArithmeticSemantics:
    def test_integer_ops(self):
        trace = run_asm("""
.func main
    li r3, 10
    li r4, 3
    add r5, r3, r4
    st r5, [r0+0]
    sub r5, r3, r4
    st r5, [r0+1]
    mul r5, r3, r4
    st r5, [r0+2]
    div r5, r3, r4
    st r5, [r0+3]
    rem r5, r3, r4
    st r5, [r0+4]
    halt
""")
        assert trace.memory[0:5] == [13, 7, 30, 3, 1]

    def test_bitwise_and_shifts(self):
        trace = run_asm("""
.func main
    li r3, 12
    li r4, 10
    and r5, r3, r4
    st r5, [r0+0]
    or r5, r3, r4
    st r5, [r0+1]
    xor r5, r3, r4
    st r5, [r0+2]
    shl r5, r3, 2
    st r5, [r0+3]
    shr r5, r3, 2
    st r5, [r0+4]
    halt
""")
        assert trace.memory[0:5] == [8, 14, 6, 48, 3]

    def test_comparisons(self):
        trace = run_asm("""
.func main
    li r3, 5
    slt r5, r3, 9
    st r5, [r0+0]
    slt r5, r3, 2
    st r5, [r0+1]
    seq r5, r3, 5
    st r5, [r0+2]
    halt
""")
        assert trace.memory[0:3] == [1, 0, 1]

    def test_div_by_zero_yields_zero(self):
        trace = run_asm("""
.func main
    li r3, 7
    div r5, r3, r0
    st r5, [r0+0]
    fdiv r6, r3, r0
    st r6, [r0+1]
    rem r7, r3, r0
    st r7, [r0+2]
    halt
""")
        assert trace.memory[0:3] == [0, 0.0, 0]

    def test_fcvt_truncates(self):
        trace = run_asm("""
.func main
    li r3, 7.9
    fcvt r4, r3
    st r4, [r0+0]
    halt
""")
        assert trace.memory[0] == 7

    def test_r0_reads_zero_and_ignores_writes(self):
        trace = run_asm("""
.func main
    li r0, 99
    add r3, r0, 5
    st r3, [r0+0]
    ld r0, [r0+0]
    add r4, r0, 1
    st r4, [r0+1]
    halt
""")
        assert trace.memory[0:2] == [5, 1]
        assert trace.registers[0] == 0


class TestControlFlow:
    def test_taken_and_not_taken_branches(self):
        trace = run_asm("""
.func main
    li r3, 1
    br r3, yes
    st r3, [r0+0]
    halt
yes:
    li r4, 5
    br r0, never
    st r4, [r0+0]
    halt
never:
    st r0, [r0+0]
    halt
""")
        assert trace.memory[0] == 5

    def test_branch_outcomes_recorded(self, vector_tdg):
        outcomes = vector_tdg.trace.branch_outcomes
        assert outcomes
        assert all(sum(v) > 0 for v in outcomes.values())

    def test_branch_bias(self):
        trace = run_asm("""
.func main
    li r3, 0
loop:
    add r3, r3, 1
    slt r4, r3, 100
    br r4, loop
    halt
""")
        uid = [i.uid for i in trace.program.static_instructions
               if i.opcode is Opcode.BR][0]
        assert trace.branch_bias(uid) == pytest.approx(0.99)

    def test_missing_halt_raises(self):
        with pytest.raises(ExecutionError):
            run_asm(".func main\n li r3, 0", max_instructions=100)

    def test_runaway_loop_capped(self):
        with pytest.raises(ExecutionError, match="exceeded"):
            run_asm("""
.func main
loop:
    jmp loop
""", max_instructions=1000)

    def test_ret_without_call_raises(self):
        with pytest.raises(ExecutionError):
            run_asm(".func main\n ret")

    def test_nested_calls(self):
        trace = run_asm(NESTED_CALLS)
        assert trace.memory[0] == 4

    def test_a_loop_calling_a_function_with_a_loop(self):
        trace = run_asm(CALL_IN_LOOP)
        assert trace.memory[200] == 3 * (0 + 1 + 2)
        assert trace.count_opcodes()[Opcode.CALL] == 3


class TestDependenceRecording:
    def test_src_deps_point_to_producers(self):
        trace = run_asm("""
.func main
    li r3, 1
    li r4, 2
    add r5, r3, r4
    halt
""")
        add = trace[2]
        assert set(add.src_deps) == {0, 1}

    def test_dep_updates_on_rewrite(self):
        trace = run_asm("""
.func main
    li r3, 1
    li r3, 2
    add r5, r3, r3
    halt
""")
        assert trace[2].src_deps == (1,)

    def test_store_to_load_mem_dep(self):
        trace = run_asm("""
.func main
    li r3, 7
    st r3, [r0+40]
    ld r4, [r0+40]
    halt
""")
        load = trace[2]
        assert load.mem_dep == 1

    def test_no_mem_dep_on_different_address(self):
        trace = run_asm("""
.func main
    li r3, 7
    st r3, [r0+40]
    ld r4, [r0+48]
    halt
""")
        assert trace[2].mem_dep is None

    def test_store_records_waw_dep(self):
        trace = run_asm("""
.func main
    li r3, 7
    st r3, [r0+40]
    st r3, [r0+40]
    halt
""")
        assert trace[2].mem_dep == 1

    def test_branch_dep_on_condition(self):
        trace = run_asm("""
.func main
    li r3, 0
    br r3, away
    halt
away:
    halt
""")
        assert trace[1].src_deps == (0,)


class TestMemoryAnnotation:
    def test_mem_addr_and_latency_recorded(self):
        trace = run_asm("""
.func main
    ld r3, [r0+128]
    halt
""")
        load = trace[0]
        assert load.mem_addr == 128
        assert load.mem_lat > 0
        assert load.mem_level in ("l1", "l2", "dram")

    def test_second_access_hits_l1(self):
        trace = run_asm("""
.func main
    ld r3, [r0+128]
    ld r4, [r0+128]
    halt
""")
        assert trace[0].mem_level == "dram"
        assert trace[1].mem_level == "l1"

    def test_memory_grows_on_demand(self):
        trace = run_asm("""
.func main
    li r3, 9
    st r3, [r0+5000]
    halt
""")
        assert trace.memory[5000] == 9

    def test_negative_address_faults(self):
        with pytest.raises(ExecutionError, match="bad address"):
            run_asm("""
.func main
    li r3, -4
    ld r4, [r3+0]
    halt
""")

    def test_icache_warm_by_default(self):
        trace = run_asm("""
.func main
    li r3, 1
    halt
""")
        assert all(d.icache_lat == 0 for d in trace)


class TestTraceMetadata:
    def test_block_counts(self, vector_tdg):
        counts = vector_tdg.trace.block_counts
        assert any(count > 1 for count in counts.values())

    def test_final_registers_snapshot(self):
        trace = run_asm("""
.func main
    li r7, 123
    halt
""")
        assert trace.registers[7] == 123

    def test_opcode_counts(self, vector_tdg):
        counts = vector_tdg.trace.count_opcodes()
        assert counts[Opcode.LD] > 0
        assert counts[Opcode.FMUL] > 0

    def test_determinism(self):
        source = """
.func main
    li r3, 0
loop:
    ld r4, [r3+64]
    add r3, r3, 1
    slt r5, r3, 50
    br r5, loop
    halt
"""
        t1 = run_asm(source)
        t2 = run_asm(source)
        assert len(t1) == len(t2)
        assert [d.mem_lat for d in t1] == [d.mem_lat for d in t2]
        assert [d.mispredicted for d in t1] == \
            [d.mispredicted for d in t2]


class TestInstructionFetch:
    def test_every_fetch_counts_and_only_line_changes_miss(self):
        from repro.sim.cache import LINE_WORDS, CacheHierarchy
        from repro.sim.interpreter import Interpreter
        program = assemble(".func main\n" + " li r3, 1\n" * 20
                           + " halt")
        caches = CacheHierarchy()
        trace = Interpreter(program, caches=caches,
                            warm_icache=False).run()
        lines = -(-len(trace) // LINE_WORDS)
        assert caches.l1i.accesses == len(trace) == 21
        assert (caches.l1i.misses, caches.dram_accesses) == (lines, lines)
        assert [inst.seq for inst in trace if inst.icache_lat] \
            == list(range(0, len(trace), LINE_WORDS))


class TestPackedBaseline:
    """The baseline packed from the interpreter's columns equals the
    walk over the rows (``tests/test_baseline_loop_events.py`` checks
    every workload).  No workload executes a ``call``, so only these
    programs cover the ``call`` and ``ret`` rows; the others cover a
    trace with no memory op or branch, and a one-row trace."""

    @pytest.mark.parametrize("source", [
        NESTED_CALLS, CALL_IN_LOOP,
        ".func main\n nop\n jmp next\nnext:\n nop\n jmp last\n"
        "last:\n halt",
        ".func main\n halt",
    ], ids=["nested_calls", "call_in_loop", "jmp_nop_halt", "halt"])
    def test_packed_baseline_equals_the_walk(self, source):
        trace = run_asm(source)
        assert trace.columns is not None
        packed = baseline_from_columns(trace)
        assert trace.columns is None
        if not kernel_available():
            assert packed is None
            return
        assert_same_baseline(packed, walked_baseline(trace))
