"""Functional interpreter producing annotated dynamic traces.

This plays gem5's role in the paper's Figure 2: it executes the program
(unmodified, scalar ISA) and emits one :class:`~repro.sim.trace.DynInst`
per executed instruction, annotated by the attached cache hierarchy and
branch predictor.
"""

import math

from repro.isa.opcodes import Opcode
from repro.sim.branch import GSharePredictor
from repro.sim.cache import LINE_WORDS, CacheHierarchy
from repro.sim.trace import DynInst, Trace

#: Hard cap on memory image growth (words).
MAX_MEMORY_WORDS = 1 << 24

# Opcodes as module globals, not ``Opcode.X`` reads: on Python 3.11
# every class-attribute read on an Enum goes through
# ``EnumType.__getattr__`` (~10x a global read), and the interpreter
# tests each executed instruction against these.
_HALT, _NOP, _JMP, _CALL, _RET, _BR, _LD, _ST = (
    Opcode.HALT, Opcode.NOP, Opcode.JMP, Opcode.CALL, Opcode.RET,
    Opcode.BR, Opcode.LD, Opcode.ST)
(_LI, _MOV, _ADD, _SUB, _MUL, _DIV, _REM, _AND, _OR, _XOR, _SHL, _SHR,
 _SLT, _SEQ, _MIN, _MAX, _FADD, _FSUB, _FMUL, _FDIV, _FMIN, _FMAX,
 _FSLT, _FSQRT, _FCVT) = (
    Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL,
    Opcode.DIV, Opcode.REM, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.SHR, Opcode.SLT, Opcode.SEQ, Opcode.MIN,
    Opcode.MAX, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
    Opcode.FMIN, Opcode.FMAX, Opcode.FSLT, Opcode.FSQRT, Opcode.FCVT)


class ExecutionError(RuntimeError):
    """Raised on runtime faults (bad address, missing halt, ...)."""


class Interpreter:
    """Executes a Program, producing a Trace.

    Parameters
    ----------
    program:
        A finalized :class:`~repro.programs.ir.Program`.
    memory:
        Initial memory image (list of numbers); copied.
    caches / predictor:
        Annotation models; defaults are the paper's common hierarchy and
        a gshare predictor.
    """

    def __init__(self, program, memory=None, caches=None, predictor=None,
                 warm_icache=True):
        program.finalize()
        self.program = program
        self.memory = list(memory or [])
        self.caches = caches if caches is not None else CacheHierarchy()
        self.predictor = (predictor if predictor is not None
                          else GSharePredictor())
        self.registers = [0] * 64
        if warm_icache:
            self.caches.warm_instructions(len(program))

    def run(self, max_instructions=2_000_000):
        """Execute from main until halt; returns the Trace."""
        program = self.program
        memory = self.memory
        registers = self.registers
        caches = self.caches
        l1i = caches.l1i
        predictor = self.predictor

        dyn_instructions = []
        trace = Trace(program, dyn_instructions)
        last_writer = [None] * 64
        last_store = {}      # word address -> seq of last store

        function = program.main
        block = function.entry
        inst_index = 0
        call_stack = []
        trace.record_block(function.name, block.label)
        seq = 0
        # Only fetches touch the L1I, so a fetch from the line the
        # previous fetch left most recently used is a hit that leaves
        # the LRU order as it is: count it without the lookup.
        fetch_line = -1

        while True:
            if seq >= max_instructions:
                raise ExecutionError(
                    f"{program.name}: exceeded {max_instructions} "
                    "instructions without halting"
                )
            if inst_index >= len(block.instructions):
                # Implicit fall-through to the next block in layout.
                next_index = block.index + 1
                if next_index >= len(function.blocks):
                    raise ExecutionError(
                        f"{program.name}: fell off the end of "
                        f"{function.name}"
                    )
                block = function.blocks[next_index]
                inst_index = 0
                trace.record_block(function.name, block.label)
                continue

            inst = block.instructions[inst_index]
            opcode = inst.opcode
            line = inst.uid // LINE_WORDS
            if line == fetch_line:
                l1i.hits += 1
                icache_lat = 0
            else:
                fetch_line = line
                icache_lat, icache_level = caches.access_inst(inst.uid)
                if icache_level == "l1":
                    icache_lat = 0
            dyn = DynInst(seq, inst, opcode, icache_lat=icache_lat)

            # ---- control flow --------------------------------------
            if opcode is _HALT:
                dyn_instructions.append(dyn)
                break
            if opcode is _NOP:
                dyn_instructions.append(dyn)
                seq += 1
                inst_index += 1
                continue
            if opcode is _JMP:
                dyn_instructions.append(dyn)
                seq += 1
                block = function.block(inst.target)
                inst_index = 0
                trace.record_block(function.name, block.label)
                continue
            if opcode is _CALL:
                call_stack.append((function, block, inst_index + 1))
                dyn_instructions.append(dyn)
                seq += 1
                function = program.function(inst.target)
                block = function.entry
                inst_index = 0
                trace.record_block(function.name, block.label)
                continue
            if opcode is _RET:
                if not call_stack:
                    raise ExecutionError("ret with empty call stack")
                dyn_instructions.append(dyn)
                seq += 1
                function, block, inst_index = call_stack.pop()
                continue
            if opcode is _BR:
                cond_reg = inst.srcs[0]
                value = registers[cond_reg] if cond_reg else 0
                taken = bool(value)
                dep = last_writer[cond_reg] if cond_reg else None
                dyn.src_deps = (dep,) if dep is not None else ()
                dyn.taken = taken
                correct = predictor.predict_and_update(inst.uid, taken)
                dyn.mispredicted = not correct
                trace.record_branch(inst.uid, taken)
                dyn_instructions.append(dyn)
                seq += 1
                if taken:
                    block = function.block(inst.target)
                    inst_index = 0
                    trace.record_block(function.name, block.label)
                else:
                    inst_index += 1
                continue

            # ---- memory --------------------------------------------
            if opcode is _LD or opcode is _ST:
                base_reg = inst.srcs[0]
                addr = (registers[base_reg] if base_reg else 0) \
                    + (inst.imm or 0)
                if not isinstance(addr, int):
                    addr = int(addr)
                if not 0 <= addr < MAX_MEMORY_WORDS:
                    raise ExecutionError(
                        f"bad address {addr} at {inst} (seq {seq})"
                    )
                if addr >= len(memory):
                    memory.extend([0] * (addr + 1 - len(memory)))
                latency, level = caches.access_data(addr)
                dyn.mem_addr = addr
                dyn.mem_lat = latency
                dyn.mem_level = level
                deps = []
                if base_reg and last_writer[base_reg] is not None:
                    deps.append(last_writer[base_reg])
                if opcode is _LD:
                    if addr in last_store:
                        dyn.mem_dep = last_store[addr]
                    registers[inst.dest] = memory[addr]
                    if inst.dest:
                        last_writer[inst.dest] = seq
                else:
                    value_reg = inst.srcs[1]
                    if value_reg and last_writer[value_reg] is not None:
                        deps.append(last_writer[value_reg])
                    memory[addr] = registers[value_reg] if value_reg else 0
                    if addr in last_store:
                        dyn.mem_dep = last_store[addr]
                    last_store[addr] = seq
                dyn.src_deps = tuple(deps)
                dyn_instructions.append(dyn)
                seq += 1
                inst_index += 1
                continue

            # ---- register compute ----------------------------------
            srcs = inst.srcs
            deps = []
            for reg in srcs:
                if reg and last_writer[reg] is not None:
                    producer = last_writer[reg]
                    if producer not in deps:
                        deps.append(producer)
            dyn.src_deps = tuple(deps)
            result = self._evaluate(opcode, inst, registers)
            dest = inst.dest
            if dest is not None and dest != 0:
                registers[dest] = result
                last_writer[dest] = seq
            dyn_instructions.append(dyn)
            seq += 1
            inst_index += 1

        trace.memory = memory
        trace.registers = list(registers)
        return trace

    @staticmethod
    def _evaluate(opcode, inst, registers):
        """Compute the value of a register-compute instruction."""
        srcs = inst.srcs
        a = registers[srcs[0]] if srcs and srcs[0] else (0 if srcs else None)
        if len(srcs) >= 2:
            b = registers[srcs[1]] if srcs[1] else 0
        else:
            b = inst.imm

        if opcode is _LI:
            return inst.imm
        if opcode is _MOV:
            return a
        if opcode is _ADD:
            return a + b
        if opcode is _SUB:
            return a - b
        if opcode is _MUL:
            return a * b
        if opcode is _DIV:
            if b == 0:
                return 0
            return int(a / b) if isinstance(a, int) and isinstance(b, int) \
                else a / b
        if opcode is _REM:
            return 0 if b == 0 else int(a) % int(b)
        if opcode is _AND:
            return int(a) & int(b)
        if opcode is _OR:
            return int(a) | int(b)
        if opcode is _XOR:
            return int(a) ^ int(b)
        if opcode is _SHL:
            return int(a) << int(b)
        if opcode is _SHR:
            return int(a) >> int(b)
        if opcode is _SLT:
            return 1 if a < b else 0
        if opcode is _SEQ:
            return 1 if a == b else 0
        if opcode is _MIN:
            return min(a, b)
        if opcode is _MAX:
            return max(a, b)
        if opcode is _FADD:
            return float(a) + float(b)
        if opcode is _FSUB:
            return float(a) - float(b)
        if opcode is _FMUL:
            return float(a) * float(b)
        if opcode is _FDIV:
            return 0.0 if b == 0 else float(a) / float(b)
        if opcode is _FMIN:
            return min(float(a), float(b))
        if opcode is _FMAX:
            return max(float(a), float(b))
        if opcode is _FSLT:
            return 1 if float(a) < float(b) else 0
        if opcode is _FSQRT:
            return math.sqrt(abs(float(a)))
        if opcode is _FCVT:
            return int(a)   # float -> int truncation (int -> float is
            #                 implicit in the fp ops)
        raise ExecutionError(f"interpreter cannot execute {opcode}")


def run_program(program, memory=None, max_instructions=2_000_000,
                caches=None, predictor=None):
    """Convenience wrapper: interpret *program* and return its Trace."""
    from repro.obs import span

    interpreter = Interpreter(program, memory=memory, caches=caches,
                              predictor=predictor)
    with span("sim.interpret", program=program.name) as current:
        trace = interpreter.run(max_instructions=max_instructions)
        current.set(dynamic_instructions=len(trace))
    return trace
