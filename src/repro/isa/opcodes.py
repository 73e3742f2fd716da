"""Opcode definitions and static classification for the mini ISA.

Each opcode carries a functional-unit class (used for structural-hazard
modeling and energy accounting) and a nominal execute latency.  Vector
opcodes mirror their scalar counterparts; they are never produced by the
workloads directly — the SIMD TDG transform introduces them.
"""

import enum


class Opcode(enum.Enum):
    """All operations understood by the interpreter and timing models."""

    # Integer ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    LI = "li"            # load immediate
    SLT = "slt"          # set if less-than
    SEQ = "seq"          # set if equal
    MIN = "min"
    MAX = "max"
    # Integer multiply / divide
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMA = "fma"          # produced by the fma transform, not by workloads
    FSQRT = "fsqrt"
    FMIN = "fmin"
    FMAX = "fmax"
    FCVT = "fcvt"        # int <-> float convert
    FSLT = "fslt"        # fp compare: set if less-than
    # Memory
    LD = "ld"
    ST = "st"
    # Control
    BR = "br"            # conditional branch on register != 0
    JMP = "jmp"          # unconditional jump
    CALL = "call"
    RET = "ret"
    HALT = "halt"
    NOP = "nop"
    # Vector forms (introduced by the SIMD transform)
    VADD = "vadd"
    VSUB = "vsub"
    VMUL = "vmul"
    VAND = "vand"
    VOR = "vor"
    VXOR = "vxor"
    VSHL = "vshl"
    VSHR = "vshr"
    VMIN = "vmin"
    VMAX = "vmax"
    VSLT = "vslt"
    VSEQ = "vseq"
    VFADD = "vfadd"
    VFSUB = "vfsub"
    VFMUL = "vfmul"
    VFDIV = "vfdiv"
    VFMIN = "vfmin"
    VFMAX = "vfmax"
    VFSLT = "vfslt"
    VLD = "vld"          # contiguous vector load
    VST = "vst"          # contiguous vector store
    VBLEND = "vblend"    # masked merge of two vectors
    VMOVMSK = "vmovmsk"  # reduce predicate vector to scalar mask
    # Accelerator plumbing (introduced by DP-CGRA / NS-DF / Trace-P transforms)
    CFG = "cfg"          # load an accelerator configuration
    SEND = "send"        # core -> accelerator operand transfer
    RECV = "recv"        # accelerator -> core operand transfer
    CFU = "cfu"          # compound functional-unit operation
    SWITCH = "switch"    # dataflow control-steering instruction


class OpClass(enum.Enum):
    """Functional-unit class, used for port/FU contention and energy."""

    ALU = "alu"
    MUL = "mul"          # integer mul/div pipe
    FP = "fp"
    FP_DIV = "fp_div"
    MEM_LD = "mem_ld"
    MEM_ST = "mem_st"
    BRANCH = "branch"
    CONTROL = "control"  # jmp/call/ret/halt/nop
    ACCEL = "accel"


_SCALAR_TO_VECTOR = {
    Opcode.ADD: Opcode.VADD,
    Opcode.SUB: Opcode.VSUB,
    Opcode.MUL: Opcode.VMUL,
    Opcode.AND: Opcode.VAND,
    Opcode.OR: Opcode.VOR,
    Opcode.XOR: Opcode.VXOR,
    Opcode.SHL: Opcode.VSHL,
    Opcode.SHR: Opcode.VSHR,
    Opcode.MIN: Opcode.VMIN,
    Opcode.MAX: Opcode.VMAX,
    Opcode.SLT: Opcode.VSLT,
    Opcode.SEQ: Opcode.VSEQ,
    Opcode.FADD: Opcode.VFADD,
    Opcode.FSUB: Opcode.VFSUB,
    Opcode.FMUL: Opcode.VFMUL,
    Opcode.FDIV: Opcode.VFDIV,
    Opcode.FMIN: Opcode.VFMIN,
    Opcode.FMAX: Opcode.VFMAX,
    Opcode.FSLT: Opcode.VFSLT,
    Opcode.LD: Opcode.VLD,
    Opcode.ST: Opcode.VST,
}
_VECTOR_TO_SCALAR = {v: k for k, v in _SCALAR_TO_VECTOR.items()}

_OP_CLASS = {
    Opcode.ADD: OpClass.ALU, Opcode.SUB: OpClass.ALU, Opcode.AND: OpClass.ALU,
    Opcode.OR: OpClass.ALU, Opcode.XOR: OpClass.ALU, Opcode.SHL: OpClass.ALU,
    Opcode.SHR: OpClass.ALU, Opcode.MOV: OpClass.ALU, Opcode.LI: OpClass.ALU,
    Opcode.SLT: OpClass.ALU, Opcode.SEQ: OpClass.ALU, Opcode.MIN: OpClass.ALU,
    Opcode.MAX: OpClass.ALU,
    Opcode.MUL: OpClass.MUL, Opcode.DIV: OpClass.MUL, Opcode.REM: OpClass.MUL,
    Opcode.FADD: OpClass.FP, Opcode.FSUB: OpClass.FP, Opcode.FMUL: OpClass.FP,
    Opcode.FMA: OpClass.FP, Opcode.FMIN: OpClass.FP, Opcode.FMAX: OpClass.FP,
    Opcode.FCVT: OpClass.FP, Opcode.FSLT: OpClass.FP,
    Opcode.FDIV: OpClass.FP_DIV, Opcode.FSQRT: OpClass.FP_DIV,
    Opcode.LD: OpClass.MEM_LD, Opcode.ST: OpClass.MEM_ST,
    Opcode.BR: OpClass.BRANCH,
    Opcode.JMP: OpClass.CONTROL, Opcode.CALL: OpClass.CONTROL,
    Opcode.RET: OpClass.CONTROL, Opcode.HALT: OpClass.CONTROL,
    Opcode.NOP: OpClass.CONTROL,
    Opcode.VLD: OpClass.MEM_LD, Opcode.VST: OpClass.MEM_ST,
    Opcode.VBLEND: OpClass.ALU, Opcode.VMOVMSK: OpClass.ALU,
    Opcode.CFG: OpClass.ACCEL, Opcode.SEND: OpClass.ACCEL,
    Opcode.RECV: OpClass.ACCEL, Opcode.CFU: OpClass.ACCEL,
    Opcode.SWITCH: OpClass.ACCEL,
}
# Vector arithmetic inherits its scalar op class.
for _s, _v in _SCALAR_TO_VECTOR.items():
    _OP_CLASS.setdefault(_v, _OP_CLASS[_s])

#: Nominal execute latency per opcode, in cycles (cache latency overrides
#: these for memory ops at trace-generation time).
FU_LATENCY = {
    Opcode.MUL: 3, Opcode.DIV: 18, Opcode.REM: 18,
    Opcode.FADD: 3, Opcode.FSUB: 3, Opcode.FMUL: 4, Opcode.FMA: 4,
    Opcode.FDIV: 16, Opcode.FSQRT: 20, Opcode.FCVT: 2,
    Opcode.FMIN: 2, Opcode.FMAX: 2, Opcode.FSLT: 2,
    Opcode.CFU: 2,
}
for _s, _v in _SCALAR_TO_VECTOR.items():
    if _s in FU_LATENCY:
        FU_LATENCY[_v] = FU_LATENCY[_s]


#: Opcodes whose FU is unpipelined (occupies the unit for its latency).
UNPIPELINED = frozenset((
    Opcode.DIV, Opcode.REM, Opcode.FDIV, Opcode.FSQRT, Opcode.VFDIV,
))

# Per-opcode facts, set once as member attributes: hot loops read
# ``opcode.latency`` with no dict probe, since every probe of a dict
# keyed by an Enum member calls the Python-level ``Enum.__hash__``.
# ``class_id`` is the op class's position in ``tuple(OpClass)``, and
# ``op_id`` the opcode's own in ``tuple(Opcode)``.
_OP_CLASSES = tuple(OpClass)
for _op_id, _op in enumerate(Opcode):
    _op.op_id = _op_id
    _op.op_class = _OP_CLASS[_op]
    _op.class_id = _OP_CLASSES.index(_op.op_class)
    _op.latency = FU_LATENCY.get(_op, 1)
    _op.is_store = _op.op_class is OpClass.MEM_ST
    _op.is_compute = _op.op_class in (
        OpClass.ALU, OpClass.MUL, OpClass.FP, OpClass.FP_DIV)
    _op.is_vector = _op in _VECTOR_TO_SCALAR or _op in (
        Opcode.VBLEND, Opcode.VMOVMSK)
    _op.unpipelined = _op in UNPIPELINED


def op_class(opcode):
    """Return the :class:`OpClass` of *opcode*."""
    return opcode.op_class


def fu_latency(opcode):
    """Nominal execute latency of *opcode* (1 cycle unless listed)."""
    return opcode.latency


def is_branch(opcode):
    """True for conditional branches (the only predicted control ops)."""
    return opcode is Opcode.BR


def is_control(opcode):
    """True for any control-flow opcode, conditional or not."""
    return opcode.op_class in (OpClass.BRANCH, OpClass.CONTROL) and (
        opcode is not Opcode.NOP
    )


def is_memory(opcode):
    return opcode.op_class in (OpClass.MEM_LD, OpClass.MEM_ST)


def is_load(opcode):
    return opcode.op_class is OpClass.MEM_LD


def is_store(opcode):
    return opcode.is_store


def is_compute(opcode):
    """True for value-producing ALU/MUL/FP work (not memory or control)."""
    return opcode.is_compute


def is_fp(opcode):
    return opcode.op_class in (OpClass.FP, OpClass.FP_DIV)


def is_vector(opcode):
    return opcode.is_vector


def vector_opcode_for(opcode):
    """Vector twin of a scalar opcode, or None if not vectorizable."""
    return _SCALAR_TO_VECTOR.get(opcode)


def scalar_opcode_for(opcode):
    """Scalar twin of a vector opcode, or None."""
    return _VECTOR_TO_SCALAR.get(opcode)
