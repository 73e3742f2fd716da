"""Event-driven core + accelerator energy model (the McPAT stand-in).

The TDG accumulates per-instruction energy events; this module prices
them with coefficients scaled by the core configuration (wider
machines pay superlinearly for rename/select/bypass, as McPAT does)
and adds structure leakage integrated over cycles.

All dynamic coefficients are in pJ at a nominal 22nm / 2GHz point.
Absolute joules are not the point (the paper reports relative energy);
the scaling *between* configurations is what matters.
"""

import bisect
import functools
import math
import operator

from repro.isa.opcodes import OpClass
from repro.energy.cacti import (
    L1D_SRAM, L1I_SRAM, L2_SRAM, DRAM_ACCESS_PJ,
)

#: Functional-unit op energy by class (pJ per scalar op).
_FU_PJ = {
    OpClass.ALU: 4.0,
    OpClass.MUL: 12.0,
    OpClass.FP: 18.0,
    OpClass.FP_DIV: 45.0,
    OpClass.BRANCH: 3.0,
    OpClass.CONTROL: 1.5,
    OpClass.MEM_LD: 0.0,   # priced via the cache model
    OpClass.MEM_ST: 0.0,
    OpClass.ACCEL: 4.0,
}

#: Vector lanes share control overhead: per-lane discount.
_VECTOR_LANE_FACTOR = 0.65

#: Accelerator-side coefficients (pJ), from the publications the paper
#: cites (DySER / SEED / BERET energy tables), rounded.
_ACCEL_OP_PJ = {
    "dp_cgra": 3.5,    # CGRA FU op
    "ns_df": 5.0,      # dataflow fire + operand storage
    "trace_p": 4.5,    # trace CFU slot
}
_ACCEL_NETWORK_PJ = {
    "dp_cgra": 2.0,    # switch traversal
    "ns_df": 2.0,      # writeback bus
    "trace_p": 1.5,
}
_CFU_EXTRA_OP_PJ = 3.0      # per additional fused op inside a CFU
_CONFIG_PJ = 250.0          # loading one accelerator configuration
_SEND_RECV_PJ = 6.0         # core <-> accelerator operand transfer
_STORE_BUFFER_PJ = 8.0      # Trace-P iteration-versioned store buffer

#: Accelerator leakage while powered on (pJ/cycle).
ACCEL_LEAK_PJ = {
    "simd": 6.0,
    "dp_cgra": 20.0,
    "ns_df": 12.0,
    "trace_p": 10.0,
}

#: Fraction of core leakage that remains when an offload BSA power-
#: gates the core (caches + wakeup logic stay on) — paper section 5.3.
POWER_GATED_CORE_LEAK_FRACTION = 0.3


class EnergyBreakdown:
    """Per-component energy (pJ) with a convenience total."""

    def __init__(self):
        self.components = {}

    def add(self, component, picojoules):
        if picojoules:
            self.components[component] = (
                self.components.get(component, 0.0) + picojoules
            )

    def merge(self, other):
        for component, picojoules in other.components.items():
            self.add(component, picojoules)
        return self

    @property
    def total_pj(self):
        return sum(self.components.values())

    @property
    def total_nj(self):
        return self.total_pj / 1000.0

    def fraction(self, component):
        total = self.total_pj
        return self.components.get(component, 0.0) / total if total else 0.0

    def __repr__(self):
        return f"<EnergyBreakdown {self.total_nj:.1f} nJ>"


class EnergyModel:
    """Prices TDG event streams for one core configuration."""

    def __init__(self, config):
        self.config = config
        width = config.width
        # Superlinear frontend/backend scaling, McPAT-style.
        width_factor = (width / 2.0) ** 0.7
        self.fetch_pj = L1I_SRAM.access_energy_pj / 2.0 + 3.0
        self.decode_pj = 3.0 * width_factor
        self.bpred_pj = 2.0
        self.commit_pj = 1.5 * width_factor
        self.regread_pj = 2.5 * (1.0 + 0.15 * (width - 2))
        self.regwrite_pj = 3.5 * (1.0 + 0.15 * (width - 2))
        self.bypass_pj = 2.5 * width_factor
        if config.in_order:
            self.rename_pj = 0.0
            self.iq_pj = 1.0      # simple scoreboard
            self.rob_pj = 0.0
            self.lsq_pj = 2.0
        else:
            self.rename_pj = 5.0 * width_factor
            self.iq_pj = 7.0 * (config.iq_size / 32.0) ** 0.5
            self.rob_pj = 5.0 * (config.rob_size / 64.0) ** 0.3
            self.lsq_pj = 7.0
        self.l1d_pj = L1D_SRAM.access_energy_pj
        self.l2_pj = L2_SRAM.access_energy_pj
        self.dram_pj = DRAM_ACCESS_PJ
        self.core_leak_pj_per_cycle = self._core_leakage()
        self._repeated_sums = {}

    def _core_leakage(self):
        config = self.config
        leak = 4.0 + 3.0 * config.width
        leak += 4.0 * config.fp_units + 1.5 * config.alu_units
        if not config.in_order:
            leak += 8.0 * (config.rob_size / 64.0)
            leak += 3.0 * (config.iq_size / 32.0)
        leak += L1I_SRAM.leakage_pj_per_cycle
        leak += L1D_SRAM.leakage_pj_per_cycle
        leak += L2_SRAM.leakage_pj_per_cycle
        return leak

    # ------------------------------------------------------------------
    def evaluate(self, stream, cycles, core_active=True,
                 active_accels=()):
        """Energy of executing *stream* over *cycles* cycles.

        ``core_active=False`` models offload regions where the BSA
        power-gates the core pipeline (NS-DF, Trace-P).
        *active_accels* names BSAs powered on during these cycles.
        """
        return self.price(self.events(stream), cycles, core_active,
                          active_accels)

    @staticmethod
    def events(stream):
        """Core-independent :class:`EnergyEvents` of *stream*, to price
        for any number of cores with :meth:`price`.  The event rule
        lives in the walk that also lowers streams for the kernel
        (:mod:`repro.tdg.fastpath`, which imports this module)."""
        from repro.tdg.fastpath import stream_events
        return stream_events(stream)

    def price(self, events, cycles, core_active=True, active_accels=()):
        """Price *events* on this core over *cycles* cycles.

        Arguments as :meth:`evaluate`.  Core-independent components
        are copied; a per-core component charged a fixed coefficient
        per event is that coefficient added ``count`` times, and the
        register file replays its per-instruction charges, so the
        result equals pricing the stream one instruction at a time,
        bit for bit.
        """
        breakdown = EnergyBreakdown()
        in_order = self.config.in_order
        for name, picojoules in events.components.items():
            if picojoules is None:
                if name == "regfile":
                    picojoules = self._regfile_pj(events.regfile)
                elif in_order and name in _OUT_OF_ORDER:
                    continue
                else:
                    picojoules = self._repeated(name)(events.counts[name])
            breakdown.add(name, picojoules)
        # Leakage.
        core_leak = self.core_leak_pj_per_cycle
        if not core_active:
            core_leak *= POWER_GATED_CORE_LEAK_FRACTION
        breakdown.add("leak_core", core_leak * cycles)
        for accel in active_accels:
            breakdown.add(f"leak_{accel}",
                          ACCEL_LEAK_PJ.get(accel, 8.0) * cycles)
        return breakdown

    def _repeated(self, name):
        """The :class:`RepeatedSum` of component *name*'s coefficient."""
        repeated = self._repeated_sums.get(name)
        if repeated is None:
            repeated = self._repeated_sums[name] = RepeatedSum(
                getattr(self, f"{name}_pj"))
        return repeated

    def _regfile_pj(self, categories):
        """Register-file pJ of per-instruction ``2 * reads + writes``
        categories, summed in stream order."""
        values = [self.regread_pj * (category >> 1)
                  + (self.regwrite_pj if category & 1 else 0.0)
                  for category in range(max(categories) + 1)]
        # reduce, not sum(): sum() compensates rounding on Python 3.12+.
        return functools.reduce(operator.add,
                                map(values.__getitem__, categories), 0.0)


#: Per-core components charged once per core instruction, before and
#: after the register file; each is priced with the model's
#: ``<name>_pj`` coefficient, as are ``bpred`` and ``lsq``.
_FRONTEND = ("fetch", "decode", "rename", "iq", "rob")
_BACKEND = ("bypass", "commit")

#: Components only an out-of-order core pays for.
_OUT_OF_ORDER = frozenset(("rename", "iq", "rob"))


class EnergyEvents:
    """Core-independent energy events of one instruction stream.

    ``components`` maps each component, in first-charged order, to its
    pJ when that does not depend on the core, or to None when
    :meth:`EnergyModel.price` computes it per core: from ``counts``
    (events of a fixed per-core coefficient) or, for ``regfile``, from
    the per-instruction ``2 * source reads + destination write``
    categories in ``regfile``.
    """

    __slots__ = ("components", "counts", "regfile")

    def __init__(self, components, counts, regfile):
        self.components = components
        self.counts = counts
        self.regfile = regfile


class RepeatedSum:
    """``0.0 + c + c + ... + c`` (n terms), rounded after every
    addition, for any n in O(log n).

    Inside one binade [2**(e-1), 2**e) all partial sums lie on one grid
    of spacing ulp, and unless *c* rounds to that grid as an exact tie
    every addition adds the same grid-rounded amount, so the sums run
    linearly.  The trajectory is stored as segments ``(n, sum, step)``:
    the sum after n additions and what each further addition adds
    until the next segment.  Additions that cross a binade, or start a
    tie binade on an odd grid point, are single-addition segments.
    """

    def __init__(self, coefficient):
        if not coefficient > 0.0:
            raise ValueError("coefficient must be positive")
        self.coefficient = coefficient
        self.starts = [0]
        self.segments = [(0, 0.0, 0.0)]
        self._end = (1, coefficient)   # first (n, sum) not yet covered

    def __call__(self, n):
        while self._end is not None and self._end[0] <= n:
            self._grow()
        start, total, step = self.segments[
            bisect.bisect_right(self.starts, n) - 1]
        return total + (n - start) * step

    def _grow(self):
        n, total = self._end
        c = self.coefficient
        _, exp = math.frexp(total)
        ulp = math.ldexp(1.0, exp - 53)
        remainder = math.fmod(c, ulp)
        floor_units = int((c - remainder) / ulp)
        here = int(total / ulp)
        tie = remainder == ulp / 2
        if tie:
            # Ties round to even: from an even grid point the rounded
            # amount is the even neighbour of floor_units, every time.
            units = floor_units + (floor_units & 1) if here % 2 == 0 \
                else 0
        else:
            units = floor_units + (remainder > ulp / 2)
        if not units and not tie and total >= c:
            self._append(n, total, 0.0)     # c no longer moves the sum
            self._end = None
            return
        # Additions whose exact sum stays below the binade's top,
        # 2**53 ulps, all add units * ulp.
        room = (1 << 53) - floor_units - 1 - here
        runs = room // units + 1 if units and room >= 0 else 0
        if runs <= 0:
            self._append(n, total, 0.0)
            self._end = (n + 1, total + c)
        else:
            self._append(n, total, units * ulp)
            self._end = (n + runs, (here + runs * units) * ulp)

    def _append(self, n, total, step):
        self.starts.append(n)
        self.segments.append((n, total, step))
