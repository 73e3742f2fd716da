"""The parameterized ExoCore design space.

The paper's exploration (Fig. 12) covers 4 cores x 16 BSA subsets = 64
points.  A production exploration service must rank *parameterized*
designs: every preset core, every BSA subset, per-BSA datapath sizings,
DVFS operating points and invocation-window depths.  This module turns
those axes into one enumerable, sampleable :class:`DesignSpace` with a
canonical per-point encoding — the default space has

    6 cores x 8 DVFS states x 4 window depths
      x sum over the 16 subsets of 8^|subset| sizing combinations
    = 192 x 6561 = 1,259,712 canonical points,

far too many for exact TDG evaluation, which is exactly why the
surrogate loop (:mod:`repro.explore.loop`) exists.

Canonicalization: a sizing level is only meaningful for a BSA that is
present in the subset, so absent BSAs are pinned to level 0.  The
index <-> point mapping (:meth:`DesignSpace.point_at`) is a bijection
over canonical points only — no design is ever counted or sampled
twice under different encodings.

Every point encodes to a stable string key (:meth:`DesignPoint.key`)
and a fixed-order feature vector (:meth:`DesignSpace.features`, see
:data:`FEATURE_NAMES`) consumed by the surrogate.  Feature vectors are
tuples of Python floats: the surrogate scores thousands of them per
round with scalar arithmetic, and importing this package never pulls
in numpy.
"""

import random

from repro.core_model import core_by_name
from repro.core_model.config import DSE_CORES
from repro.dse.sweep import ALL_BSAS, ALL_SUBSETS, subset_to_key
from repro.energy.dvfs import NOMINAL_GHZ, OperatingPoint

#: Default axes of the production space (>= 10^6 canonical points).
DEFAULT_CORES = ("IO2", "OOO1", "OOO2", "OOO4", "OOO6", "OOO8")
DEFAULT_FREQS = (0.5, 0.8, 1.0, 1.25, 1.6, 2.0, 2.5, 3.2)
DEFAULT_SIZING_LEVELS = (0, 1, 2, 3, 4, 5, 6, 7)
DEFAULT_MAX_INVOCATIONS = (2, 4, 8, 16)

#: Datapath-width multiplier per sizing level (level 0 = the paper's
#: nominal sizing; the analytic model in :mod:`repro.explore.evaluate`
#: turns a multiplier into sublinear speedup and superlinear energy).
SIZING_FACTORS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)


class DesignPoint:
    """One canonical point: core, BSA subset, sizing, DVFS, window.

    *sizing* is a 4-tuple of levels aligned with
    :data:`~repro.dse.sweep.ALL_BSAS`; construction canonicalizes it
    by pinning the level of every absent BSA to 0, and normalizes the
    subset to canonical BSA order.
    """

    __slots__ = ("core", "subset", "freq_ghz", "sizing",
                 "max_invocations")

    def __init__(self, core, subset, freq_ghz=NOMINAL_GHZ,
                 sizing=(0, 0, 0, 0), max_invocations=8):
        subset = tuple(b for b in ALL_BSAS if b in set(subset))
        sizing = tuple(sizing)
        if len(sizing) != len(ALL_BSAS):
            raise ValueError(
                f"sizing must have {len(ALL_BSAS)} levels, "
                f"got {sizing!r}")
        self.core = str(core)
        self.subset = subset
        self.freq_ghz = float(freq_ghz)
        self.sizing = tuple(
            level if bsa in subset else 0
            for bsa, level in zip(ALL_BSAS, sizing))
        self.max_invocations = int(max_invocations)

    def key(self):
        """Canonical string encoding (stable across runs/processes)."""
        sizing = ",".join(str(level) for level in self.sizing)
        return (f"{self.core}|{subset_to_key(self.subset)}"
                f"|f={self.freq_ghz:g}|s={sizing}"
                f"|k={self.max_invocations}")

    def to_json(self):
        return {
            "key": self.key(),
            "core": self.core,
            "subset": subset_to_key(self.subset),
            "freq_ghz": self.freq_ghz,
            "sizing": list(self.sizing),
            "max_invocations": self.max_invocations,
        }

    @classmethod
    def from_json(cls, data):
        from repro.dse.sweep import key_to_subset
        return cls(data["core"], key_to_subset(data["subset"]),
                   freq_ghz=data["freq_ghz"],
                   sizing=tuple(data["sizing"]),
                   max_invocations=data["max_invocations"])

    def __eq__(self, other):
        if not isinstance(other, DesignPoint):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<DesignPoint {self.key()}>"


#: Fixed order of the surrogate's hand-rolled features.
FEATURE_NAMES = (
    # core microarchitecture
    "width", "rob_size", "iq_size", "dcache_ports",
    "alu_units", "mul_units", "fp_units", "in_order",
    # BSA subset membership + per-BSA effective sizing factor
    "has_simd", "has_dp_cgra", "has_ns_df", "has_trace_p",
    "subset_size",
    "size_simd", "size_dp_cgra", "size_ns_df", "size_trace_p",
    # DVFS operating point
    "freq_ghz", "vdd", "freq_ratio",
    # evaluation window
    "max_invocations",
    # interactions the linear model cannot build itself
    "width_x_subset", "freq_x_width",
    # pairwise BSA co-membership: speedups of co-present BSAs do not
    # compose additively in log space (they compete for region
    # coverage), so the model needs explicit pair terms to learn the
    # submodularity
    "pair_simd_dp_cgra", "pair_simd_ns_df", "pair_simd_trace_p",
    "pair_dp_cgra_ns_df", "pair_dp_cgra_trace_p",
    "pair_ns_df_trace_p",
    # core-width x BSA membership: a BSA's payoff scales with the
    # width of the host core it offloads (simd on OOO6 is not simd on
    # IO2), which per-BSA one-hots alone cannot transfer across cores
    "width_x_simd", "width_x_dp_cgra", "width_x_ns_df",
    "width_x_trace_p",
)


class DesignSpace:
    """Enumerable, sampleable cross product of the config axes.

    Points are indexed ``0 .. size-1`` in a fixed order: subsets in
    :data:`~repro.dse.sweep.ALL_SUBSETS` order, then (core, freq,
    window, per-present-BSA sizing digits) in mixed radix.  The
    mapping is a bijection over canonical points, so uniform index
    sampling is uniform point sampling with no duplicate encodings.
    """

    def __init__(self, cores=DEFAULT_CORES, subsets=ALL_SUBSETS,
                 freqs=DEFAULT_FREQS,
                 sizing_levels=DEFAULT_SIZING_LEVELS,
                 max_invocations=DEFAULT_MAX_INVOCATIONS):
        self.cores = tuple(cores)
        if not self.cores:
            raise ValueError("need at least one core")
        for core in self.cores:
            core_by_name(core)          # raises on unknown names
        self.subsets = tuple(
            tuple(b for b in ALL_BSAS if b in set(subset))
            for subset in subsets)
        if len(set(self.subsets)) != len(self.subsets):
            raise ValueError("duplicate subsets in the space")
        for subset, given in zip(self.subsets, subsets):
            unknown = [b for b in given if b not in ALL_BSAS]
            if unknown:
                raise ValueError(f"unknown BSAs {unknown!r}")
        self.freqs = tuple(float(f) for f in freqs)
        self.sizing_levels = tuple(int(level) for level in sizing_levels)
        if not self.sizing_levels or not self.freqs:
            raise ValueError("need at least one freq / sizing level")
        for level in self.sizing_levels:
            if not 0 <= level < len(SIZING_FACTORS):
                raise ValueError(
                    f"sizing level {level} outside "
                    f"0..{len(SIZING_FACTORS) - 1}")
        self.max_invocations = tuple(int(k) for k in max_invocations)
        if not self.max_invocations \
                or any(k < 1 for k in self.max_invocations):
            raise ValueError("max_invocations must be >= 1")

        base = (len(self.cores) * len(self.freqs)
                * len(self.max_invocations))
        self._blocks = [
            base * len(self.sizing_levels) ** len(subset)
            for subset in self.subsets
        ]
        self._offsets = []
        total = 0
        for block in self._blocks:
            self._offsets.append(total)
            total += block
        self.size = total

    @classmethod
    def paper(cls, cores=DSE_CORES, max_invocations=(8,)):
        """The paper's exact Fig. 12 space: |cores| x 16 subsets.

        DVFS pinned at nominal, sizing pinned at level 0 — exactly the
        64 points the exhaustive sweep evaluates, which is what the
        frontier-recall acceptance test explores.
        """
        return cls(cores=cores, freqs=(NOMINAL_GHZ,),
                   sizing_levels=(0,),
                   max_invocations=max_invocations)

    # -- indexing ------------------------------------------------------

    def point_at(self, index):
        """Decode canonical *index* into its :class:`DesignPoint`."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"index {index} outside 0..{self.size - 1}")
        subset_index = 0
        while index >= self._offsets[subset_index] \
                + self._blocks[subset_index]:
            subset_index += 1
        subset = self.subsets[subset_index]
        rest = index - self._offsets[subset_index]

        levels = []
        for _ in subset:
            rest, digit = divmod(rest, len(self.sizing_levels))
            levels.append(self.sizing_levels[digit])
        rest, window_index = divmod(rest, len(self.max_invocations))
        rest, freq_index = divmod(rest, len(self.freqs))
        core_index, remainder = divmod(rest, 1)
        if core_index >= len(self.cores) or remainder:
            raise AssertionError("mixed-radix decode out of range")

        by_bsa = dict(zip(subset, levels))
        sizing = tuple(by_bsa.get(bsa, 0) for bsa in ALL_BSAS)
        return DesignPoint(
            self.cores[core_index], subset,
            freq_ghz=self.freqs[freq_index], sizing=sizing,
            max_invocations=self.max_invocations[window_index])

    def index_of(self, point):
        """Inverse of :meth:`point_at` (tests the bijection)."""
        subset_index = self.subsets.index(point.subset)
        core_index = self.cores.index(point.core)
        freq_index = self.freqs.index(point.freq_ghz)
        window_index = self.max_invocations.index(
            point.max_invocations)
        rest = core_index
        rest = rest * len(self.freqs) + freq_index
        rest = rest * len(self.max_invocations) + window_index
        levels = [point.sizing[ALL_BSAS.index(bsa)]
                  for bsa in point.subset]
        for level in reversed(levels):
            rest = rest * len(self.sizing_levels) \
                + self.sizing_levels.index(level)
        return self._offsets[subset_index] + rest

    def __len__(self):
        return self.size

    def __iter__(self):
        return (self.point_at(i) for i in range(self.size))

    def sample(self, n, seed=0):
        """*n* distinct points, deterministic in *seed*.

        Draws uniform indices with a dedicated :class:`random.Random`
        (never the global RNG) and dedupes, preserving draw order —
        the same (space, n, seed) always yields the same points, on
        any machine and any worker count.
        """
        n = min(int(n), self.size)
        rng = random.Random(seed)
        chosen = {}
        while len(chosen) < n:
            index = rng.randrange(self.size)
            if index not in chosen:
                chosen[index] = self.point_at(index)
        return list(chosen.values())

    def sample_stratified(self, n, seed=0):
        """*n* distinct points spread round-robin across subsets.

        The surrogate's hardest axis is the subset lattice: BSA
        speedups compose submodularly, so pair-interaction weights are
        unlearnable from a seed sample that happens to miss whole
        subsets.  This sampler shuffles the subset list once (seeded),
        then deals points round-robin — subset coverage first, uniform
        within-subset choice after — so an ``init``-sized seed sample
        touches ``min(init, n_subsets)`` distinct subsets instead of
        however many a uniform draw happens to hit.  Deterministic in
        *seed*, like :meth:`sample`.
        """
        n = min(int(n), self.size)
        rng = random.Random(seed)
        order = list(range(len(self.subsets)))
        rng.shuffle(order)
        chosen = {}
        per_subset_seen = {}
        position = 0
        while len(chosen) < n:
            subset_index = order[position % len(order)]
            position += 1
            block = self._blocks[subset_index]
            seen = per_subset_seen.setdefault(subset_index, set())
            if len(seen) >= block:
                if all(len(per_subset_seen.get(i, ()))
                       >= self._blocks[i] for i in order):
                    break               # space exhausted
                continue
            while True:
                offset = rng.randrange(block)
                if offset not in seen:
                    break
            seen.add(offset)
            index = self._offsets[subset_index] + offset
            chosen[index] = self.point_at(index)
        return list(chosen.values())

    # -- features ------------------------------------------------------

    def features(self, point):
        """Fixed-order feature vector (see :data:`FEATURE_NAMES`)."""
        return point_features(point)

    def to_json(self):
        """Axis description for the EXPLORE artifact's config block."""
        return {
            "cores": list(self.cores),
            "subsets": [subset_to_key(s) for s in self.subsets],
            "freqs": list(self.freqs),
            "sizing_levels": list(self.sizing_levels),
            "max_invocations": list(self.max_invocations),
            "size": self.size,
        }

    def __repr__(self):
        return (f"<DesignSpace {len(self.cores)} cores x "
                f"{len(self.subsets)} subsets x {len(self.freqs)} "
                f"freqs x {len(self.sizing_levels)} sizings x "
                f"{len(self.max_invocations)} windows = "
                f"{self.size} points>")


def point_features(point):
    """The hand-rolled feature vector for one :class:`DesignPoint`."""
    config = core_by_name(point.core)
    present = set(point.subset)
    op = OperatingPoint(point.freq_ghz)
    membership = [1.0 if bsa in present else 0.0 for bsa in ALL_BSAS]
    sizing = [
        SIZING_FACTORS[level] if bsa in present else 0.0
        for bsa, level in zip(ALL_BSAS, point.sizing)
    ]
    return (
        float(config.width),
        float(config.rob_size or 0),
        float(config.iq_size or 0),
        float(config.dcache_ports),
        float(config.alu_units),
        float(config.mul_units),
        float(config.fp_units),
        1.0 if config.in_order else 0.0,
        *membership,
        float(len(point.subset)),
        *sizing,
        point.freq_ghz,
        op.vdd,
        point.freq_ghz / NOMINAL_GHZ,
        float(point.max_invocations),
        float(config.width) * len(point.subset),
        point.freq_ghz * config.width,
        *(membership[a] * membership[b]
          for a in range(len(membership))
          for b in range(a + 1, len(membership))),
        *(float(config.width) * m for m in membership),
    )
