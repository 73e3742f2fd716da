"""The Transformable Dependence Graph (TDG) — the paper's contribution.

- :mod:`repro.tdg.mudg`: explicit µDG construction for small windows
  (inspection, validation microbenchmarks, the paper's Figure 4).
- :mod:`repro.tdg.engine`: the incremental windowed timing engine that
  evaluates core+accelerator TDGs over full traces.
- :mod:`repro.tdg.constructor`: builds the original TDG
  (``TDG_{GPP,0}``) from a program + inputs via the interpreter.
- :mod:`repro.tdg.fastpath`: the compiled evaluation hot path — a
  :class:`~repro.tdg.fastpath.StreamBuilder` that lowers each
  instruction stream to flat arrays once when the kernel compiles (its
  ``finish`` is the one place that picks a stream's form; the baseline
  trace is packed from the interpreter's columns instead), and a
  drop-in :class:`FastTimingEngine` that relaxes edges over lowered
  streams in a C kernel and times DynInst lists on the object engine
  (byte-identical to :class:`TimingEngine`).
"""

from repro.tdg.mudg import NodeKind, EdgeKind, MicroDepGraph
from repro.tdg.engine import TimingEngine, TimingResult
from repro.tdg.constructor import TDG, construct_tdg
from repro.tdg.dsl import DslTransform, Rule, op, fma_rule
from repro.tdg.fastpath import (
    FastTimingEngine, LoweredStream, LoweringError, lower_stream,
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
    "TDG",
    "construct_tdg",
    "DslTransform",
    "Rule",
    "op",
    "fma_rule",
]
