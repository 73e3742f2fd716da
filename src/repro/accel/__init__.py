"""Behavior-Specialized Accelerator (BSA) models.

Each model is a TDG analyzer + transformer pair (paper Fig. 2): the
analyzer finds legal and profitable regions and builds a "plan"; the
transformer rewrites the region's µDG slice into the combined
core+accelerator TDG, which the timing engine and energy model then
evaluate.

Models (paper Table 2):

- :mod:`repro.accel.simd` — short-vector SIMD (auto-vectorization)
- :mod:`repro.accel.dp_cgra` — data-parallel CGRA (DySER-like)
- :mod:`repro.accel.ns_df` — non-speculative dataflow (SEED-like)
- :mod:`repro.accel.trace_p` — trace-speculative processor (BERET-like)
"""

from repro.accel.base import (
    AnalysisContext, BSAModel, RegionEstimate, SeqAllocator,
)
from repro.accel.simd import SIMDModel
from repro.accel.dp_cgra import DPCGRAModel
from repro.accel.ns_df import NSDataflowModel
from repro.accel.trace_p import TraceProcessorModel

#: All four design-space BSAs keyed by their short name
#: (paper Fig. 12 letters: S, D, N, T).
BSA_REGISTRY = {
    "simd": SIMDModel,
    "dp_cgra": DPCGRAModel,
    "ns_df": NSDataflowModel,
    "trace_p": TraceProcessorModel,
}

BSA_LETTER = {"simd": "S", "dp_cgra": "D", "ns_df": "N", "trace_p": "T"}

__all__ = [
    "AnalysisContext",
    "BSAModel",
    "RegionEstimate",
    "SeqAllocator",
    "SIMDModel",
    "DPCGRAModel",
    "NSDataflowModel",
    "TraceProcessorModel",
    "BSA_REGISTRY",
    "BSA_LETTER",
]
