"""The Transformable Dependence Graph (TDG) — the paper's contribution.

- :mod:`repro.tdg.mudg`: explicit µDG construction for small windows
  (inspection, validation microbenchmarks, the paper's Figure 4).
- :mod:`repro.tdg.engine`: the incremental windowed timing engine that
  evaluates core+accelerator TDGs over full traces.
- :mod:`repro.tdg.constructor`: builds the original TDG
  (``TDG_{GPP,0}``) from a program + inputs via the interpreter.
- :mod:`repro.tdg.fastpath`: the compiled evaluation hot path — a
  drop-in :class:`FastTimingEngine` that lowers instruction streams to
  flat arrays once and relaxes edges over them in a C kernel
  (byte-identical to :class:`TimingEngine`; ``make_engine`` picks it
  whenever the kernel compiles).
"""

from repro.tdg.mudg import NodeKind, EdgeKind, MicroDepGraph
from repro.tdg.engine import TimingEngine, TimingResult
from repro.tdg.constructor import TDG, construct_tdg
from repro.tdg.dsl import DslTransform, Rule, op, fma_rule
from repro.tdg.fastpath import (
    FastTimingEngine, LoweredStream, LoweringError, lower_stream,
    make_engine,
)

__all__ = [
    "NodeKind",
    "EdgeKind",
    "MicroDepGraph",
    "TimingEngine",
    "TimingResult",
    "FastTimingEngine",
    "LoweredStream",
    "LoweringError",
    "lower_stream",
    "make_engine",
    "TDG",
    "construct_tdg",
    "DslTransform",
    "Rule",
    "op",
    "fma_rule",
]
