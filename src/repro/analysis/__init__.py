"""TDG analysis passes (the paper's "TDG Analyzer", Fig. 2/4c).

These passes inspect the program IR and the dynamic trace to find
legally and profitably acceleratable regions and produce the
transformation "plan" each BSA transform consumes:

- :mod:`repro.analysis.cfg` — dominators and CFG orderings
- :mod:`repro.analysis.loops` — natural loops and the nesting forest
- :mod:`repro.analysis.regions` — dynamic loop-invocation intervals
- :mod:`repro.analysis.pathprof` — Ball-Larus-style path profiling,
  whose one walk records every loop iteration's span and path
- :mod:`repro.analysis.memdep` — inter-iteration dependence analysis
  (vectorization legality)
- :mod:`repro.analysis.slicing` — access/execute slicing (DP-CGRA)
- :mod:`repro.analysis.cfu` — compound-FU scheduling (NS-DF, Trace-P)
- :mod:`repro.analysis.behavior` — the paper's Fig. 6 behavior taxonomy
"""

from repro.analysis.cfg import dominators, reverse_post_order
from repro.analysis.loops import Loop, build_loop_forest
from repro.analysis.regions import loop_intervals, attribute_baseline
from repro.analysis.pathprof import profile_paths, LoopPathProfile
from repro.analysis.memdep import analyze_loop_dependences, LoopDepInfo
from repro.analysis.slicing import slice_loop_body, SliceInfo
from repro.analysis.cfu import schedule_cfus, CFUSchedule
from repro.analysis.behavior import classify_loop, BehaviorClass

__all__ = [
    "dominators",
    "reverse_post_order",
    "Loop",
    "build_loop_forest",
    "loop_intervals",
    "attribute_baseline",
    "profile_paths",
    "LoopPathProfile",
    "analyze_loop_dependences",
    "LoopDepInfo",
    "slice_loop_body",
    "SliceInfo",
    "schedule_cfus",
    "CFUSchedule",
    "classify_loop",
    "BehaviorClass",
]
