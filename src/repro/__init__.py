"""repro: Transformable Dependence Graph (TDG) modeling and ExoCore
design-space exploration.

A reproduction of "Analyzing Behavior Specialized Acceleration"
(Nowatzki & Sankaralingam, ASPLOS 2016).

Quickstart
----------
>>> from repro import WORKLOADS, evaluate_benchmark, oracle_schedule
>>> tdg = WORKLOADS["conv"].construct_tdg()
>>> evaluation = evaluate_benchmark(tdg)
>>> schedule = oracle_schedule(
...     evaluation, "OOO2", ("simd", "dp_cgra", "ns_df", "trace_p"))
>>> speedup = evaluation.baseline("OOO2").cycles / schedule.cycles

Package map
-----------
- :mod:`repro.isa`, :mod:`repro.programs` -- mini ISA + program IR
- :mod:`repro.sim` -- trace-generating simulator substrate
- :mod:`repro.tdg` -- the TDG itself: uDG, constructor, timing engine
- :mod:`repro.core_model` -- general-core configurations (Table 4)
- :mod:`repro.energy` -- McPAT/CACTI-style energy, power, area
- :mod:`repro.analysis` -- loops, path profiles, dependences, slicing
- :mod:`repro.accel` -- the four BSA models
- :mod:`repro.exocore` -- region scheduling and composition
- :mod:`repro.dse` -- the 64-point design-space sweep
- :mod:`repro.workloads` -- the 48-benchmark suite (Table 3)
- :mod:`repro.validation` -- cross-validation harness (Table 1/Fig. 5)
"""

from repro.core_model import (
    CoreConfig, IO2, OOO1, OOO2, OOO4, OOO6, OOO8, core_by_name,
)
from repro.tdg import TDG, construct_tdg, TimingEngine, TimingResult
from repro.energy import EnergyModel, core_area, exocore_area
from repro.exocore import (
    evaluate_benchmark, oracle_schedule, amdahl_schedule,
    switching_timeline,
)
from repro.workloads import WORKLOADS
from repro.accel import BSA_REGISTRY

__version__ = "1.0.0"

__all__ = [
    "CoreConfig", "IO2", "OOO1", "OOO2", "OOO4", "OOO6", "OOO8",
    "core_by_name", "TDG", "construct_tdg", "TimingEngine",
    "TimingResult", "EnergyModel", "core_area", "exocore_area",
    "evaluate_benchmark", "oracle_schedule", "amdahl_schedule",
    "switching_timeline", "WORKLOADS", "BSA_REGISTRY", "__version__",
]
