"""Functional interpreter producing annotated dynamic traces.

This plays gem5's role in the paper's Figure 2: it executes the program
(unmodified, scalar ISA) and emits one :class:`~repro.sim.trace.DynInst`
per executed instruction, annotated by the attached cache hierarchy and
branch predictor.  As it executes it also fills the trace's
:class:`~repro.sim.trace.TraceColumns`, the per-row facts the lowered
baseline trace is packed from
(:func:`~repro.tdg.fastpath.baseline_from_columns`), so no later pass
walks the rows to build it.
"""

import math

from repro.isa.opcodes import Opcode
from repro.sim.branch import GSharePredictor
from repro.sim.cache import LINE_WORDS, CacheHierarchy
from repro.sim.trace import MEM_LEVEL_CODES, DynInst, Trace, TraceColumns

#: Hard cap on memory image growth (words).
MAX_MEMORY_WORDS = 1 << 24


class ExecutionError(RuntimeError):
    """Raised on runtime faults (bad address, missing halt, ...)."""


def _div(a, b):
    if b == 0:
        return 0
    return int(a / b) if isinstance(a, int) and isinstance(b, int) \
        else a / b


#: Value of each register-compute opcode from its operands ``a`` (the
#: first source register, None without one) and ``b`` (the second, or
#: the immediate).  ``li`` is evaluated with ``b`` the immediate.
_COMPUTE_OPS = {
    Opcode.LI: lambda a, b: b,
    Opcode.MOV: lambda a, b: a,
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _div,
    Opcode.REM: lambda a, b: 0 if b == 0 else int(a) % int(b),
    Opcode.AND: lambda a, b: int(a) & int(b),
    Opcode.OR: lambda a, b: int(a) | int(b),
    Opcode.XOR: lambda a, b: int(a) ^ int(b),
    Opcode.SHL: lambda a, b: int(a) << int(b),
    Opcode.SHR: lambda a, b: int(a) >> int(b),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FDIV: lambda a, b: 0.0 if b == 0 else float(a) / float(b),
    Opcode.FMIN: lambda a, b: min(float(a), float(b)),
    Opcode.FMAX: lambda a, b: max(float(a), float(b)),
    Opcode.FSLT: lambda a, b: 1 if float(a) < float(b) else 0,
    Opcode.FSQRT: lambda a, b: math.sqrt(abs(float(a))),
    # float -> int truncation (int -> float is implicit in the fp ops)
    Opcode.FCVT: lambda a, b: int(a),
}

#: What the run loop does with an instruction, most frequent first.
_COMPUTE, _MEMORY, _BRANCH, _JUMP, _CALL, _RET, _NOP, _HALT = range(8)
_CONTROL_KINDS = {Opcode.JMP: _JUMP, Opcode.CALL: _CALL,
                  Opcode.RET: _RET, Opcode.NOP: _NOP, Opcode.HALT: _HALT}


def _cannot_execute(opcode):
    def evaluate(a, b):
        raise ExecutionError(f"interpreter cannot execute {opcode}")
    return evaluate


def _static_facts(inst):
    """``(kind, opcode, fetch line, latency, destination write,
    operands)`` of one static instruction, read once per run instead of
    once per execution.

    The operands depend on the kind: a register compute's evaluator,
    first source register (None without one), second source register
    (None: the immediate is ``b``), immediate, deduplicated nonzero
    source registers and destination (0 for none); a memory op's base
    register, offset, value register (stores), destination (loads) and
    whether it stores; a branch's condition register and target; a
    jump's or call's target.
    """
    opcode = inst.opcode
    srcs = inst.srcs
    dest = inst.dest or 0
    if opcode is Opcode.LD or opcode is Opcode.ST:
        kind = _MEMORY
        is_store = opcode is Opcode.ST
        operands = (srcs[0], inst.imm or 0,
                    srcs[1] if is_store else 0, dest, is_store)
    elif opcode is Opcode.BR:
        kind = _BRANCH
        operands = (srcs[0], inst.target)
    elif opcode in _CONTROL_KINDS:
        kind = _CONTROL_KINDS[opcode]
        operands = inst.target
    else:
        kind = _COMPUTE
        evaluate = _COMPUTE_OPS.get(opcode) or _cannot_execute(opcode)
        if opcode is Opcode.LI:
            a_reg = b_reg = None
        else:
            a_reg = srcs[0] if srcs else None
            b_reg = srcs[1] if len(srcs) >= 2 else None
        operands = (evaluate, a_reg, b_reg, inst.imm,
                    tuple(dict.fromkeys(reg for reg in srcs if reg)),
                    dest)
    return (kind, opcode, inst.uid // LINE_WORDS, opcode.latency,
            int(inst.dest is not None), operands)


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

    Register 0 reads zero and ignores every write, so the run loop
    reads it like any other register.
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
        access_data = caches.access_data
        l1i = caches.l1i
        predict = self.predictor.predict_and_update
        level_code = MEM_LEVEL_CODES.get
        facts = [_static_facts(inst) for inst in program.static_instructions]

        dyn_instructions = []
        columns = TraceColumns()
        trace = Trace(program, dyn_instructions, columns=columns)
        record_block = trace.record_block
        record_branch = trace.record_branch
        dyn_append = dyn_instructions.append
        uid_append = columns.uid.append
        lat_append = columns.lat.append
        memdep_append = columns.memdep.append
        level_append = columns.level.append
        mispred_append = columns.mispred.append
        icache_append = columns.icache.append
        regfile_append = columns.regfile.append
        dep_ptr_append = columns.dep_ptr.append
        dep_idx = columns.dep_idx
        last_writer = [None] * 64
        last_store = {}      # word address -> seq of last store

        function = program.main
        block = function.entry
        instructions = block.instructions
        inst_index = 0
        call_stack = []
        record_block(function.name, block.label)
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
            if inst_index >= len(instructions):
                # Implicit fall-through to the next block in layout.
                next_index = block.index + 1
                if next_index >= len(function.blocks):
                    raise ExecutionError(
                        f"{program.name}: fell off the end of "
                        f"{function.name}"
                    )
                block = function.blocks[next_index]
                instructions = block.instructions
                inst_index = 0
                record_block(function.name, block.label)
                continue

            inst = instructions[inst_index]
            uid = inst.uid
            kind, opcode, line, latency, writes, operands = facts[uid]
            if line == fetch_line:
                l1i.hits += 1
                icache_lat = 0
            else:
                fetch_line = line
                icache_lat, icache_level = caches.access_inst(uid)
                if icache_level == "l1":
                    icache_lat = 0
            uid_append(uid)
            icache_append(icache_lat)

            # ---- register compute ----------------------------------
            if kind == _COMPUTE:
                evaluate, a_reg, b_reg, imm, regs, dest = operands
                deps = []
                for reg in regs:
                    producer = last_writer[reg]
                    if producer is not None:
                        deps.append(producer)
                result = evaluate(
                    None if a_reg is None else registers[a_reg],
                    imm if b_reg is None else registers[b_reg])
                if dest:
                    registers[dest] = result
                    last_writer[dest] = seq
                dyn_append(DynInst(seq, inst, opcode, deps, None, None, 0,
                                   None, None, False, icache_lat))
                lat_append(latency)
                memdep_append(-1)
                level_append(0)
                mispred_append(0)
                regfile_append(2 * len(deps) + writes)
                dep_idx += deps
                dep_ptr_append(len(dep_idx))
                seq += 1
                inst_index += 1
                continue

            # ---- memory --------------------------------------------
            if kind == _MEMORY:
                base_reg, offset, value_reg, dest, is_store = operands
                addr = registers[base_reg] + offset
                if not isinstance(addr, int):
                    addr = int(addr)
                if not 0 <= addr < MAX_MEMORY_WORDS:
                    raise ExecutionError(
                        f"bad address {addr} at {inst} (seq {seq})"
                    )
                if addr >= len(memory):
                    memory.extend([0] * (addr + 1 - len(memory)))
                mem_lat, level = access_data(addr)
                producer = last_writer[base_reg]
                deps = [] if producer is None else [producer]
                mem_dep = last_store.get(addr)
                if is_store:
                    producer = last_writer[value_reg]
                    if producer is not None:
                        deps.append(producer)
                    memory[addr] = registers[value_reg]
                    last_store[addr] = seq
                elif dest:
                    registers[dest] = memory[addr]
                    last_writer[dest] = seq
                dyn_append(DynInst(seq, inst, opcode, deps, mem_dep, addr,
                                   mem_lat, level, None, False, icache_lat))
                lat_append(mem_lat or latency)
                memdep_append(-1 if mem_dep is None else mem_dep)
                level_append(level_code(level, 1))
                mispred_append(0)
                regfile_append(2 * len(deps) + writes)
                dep_idx += deps
                dep_ptr_append(len(dep_idx))
                seq += 1
                inst_index += 1
                continue

            # ---- control flow --------------------------------------
            if kind == _BRANCH:
                cond_reg, target = operands
                taken = bool(registers[cond_reg])
                producer = last_writer[cond_reg]
                deps = () if producer is None else (producer,)
                mispredicted = not predict(uid, taken)
                record_branch(uid, taken)
                dyn_append(DynInst(seq, inst, opcode, deps, None, None, 0,
                                   None, taken, mispredicted, icache_lat))
                lat_append(latency)
                memdep_append(-1)
                level_append(0)
                mispred_append(int(mispredicted))
                regfile_append(2 * len(deps) + writes)
                dep_idx += deps
                dep_ptr_append(len(dep_idx))
                seq += 1
                if taken:
                    block = function.block(target)
                    instructions = block.instructions
                    inst_index = 0
                    record_block(function.name, block.label)
                else:
                    inst_index += 1
                continue

            # jmp, call, ret, nop, halt: no register read, no deps
            dyn_append(DynInst(seq, inst, opcode, (), None, None, 0, None,
                               None, False, icache_lat))
            lat_append(latency)
            memdep_append(-1)
            level_append(0)
            mispred_append(0)
            regfile_append(writes)
            dep_ptr_append(len(dep_idx))
            seq += 1
            if kind == _JUMP:
                block = function.block(operands)
                inst_index = 0
            elif kind == _CALL:
                call_stack.append((function, block, inst_index + 1))
                function = program.function(operands)
                block = function.entry
                inst_index = 0
            elif kind == _RET:
                if not call_stack:
                    raise ExecutionError("ret with empty call stack")
                function, block, inst_index = call_stack.pop()
                instructions = block.instructions
                continue
            elif kind == _NOP:
                inst_index += 1
                continue
            else:
                break
            instructions = block.instructions
            record_block(function.name, block.label)

        trace.memory = memory
        trace.registers = list(registers)
        return trace


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
