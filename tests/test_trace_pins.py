"""What the interpreter and the loop analyses produce, pinned by digest.

One record per workload at scale 0.1:

- ``trace``: sha256 over every :class:`~repro.sim.trace.DynInst` slot
  of the interpreter's trace, plus its final memory image, registers,
  block counts and branch outcomes;
- ``intervals``: sha256 over :func:`~repro.analysis.regions.loop_intervals`;
- ``profiles``: sha256 over every loop's
  :func:`~repro.analysis.pathprof.profile_paths` statistics
  (invocations, iterations, dynamic and branch instructions, path
  counts);
- ``caches``: the L1I, L1D and L2 hit and miss counters and the DRAM
  access count the run leaves behind.

A faster interpreter, cache model or loop segmentation must leave every
record as it is. To bless an intentional model change:

    PYTHONPATH=src python -m pytest tests/test_trace_pins.py \
        --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.loops import build_loop_forest
from repro.analysis.pathprof import profile_paths
from repro.analysis.regions import loop_intervals
from repro.sim.cache import CacheHierarchy
from repro.tdg.constructor import construct_tdg
from repro.workloads import WORKLOADS
from tests.test_transform_digests import _inst_fields

GOLDEN = Path(__file__).parent / "golden" / "trace_pins.json"

SCALE = 0.1


def _sha(items):
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


def _pins(name):
    program, memory = WORKLOADS[name].build(SCALE)
    caches = CacheHierarchy()
    tdg = construct_tdg(program, memory, max_instructions=4_000_000,
                        caches=caches)
    trace = tdg.trace
    forest = build_loop_forest(program)
    intervals = loop_intervals(tdg, forest)
    profiles = profile_paths(tdg, forest, intervals)
    return {
        "trace": _sha([
            *map(_inst_fields, trace.instructions), trace.memory,
            trace.registers, sorted(trace.block_counts.items()),
            sorted(trace.branch_outcomes.items())]),
        "intervals": _sha(sorted(intervals.items())),
        "profiles": _sha(
            (key, profile.invocations, profile.iterations,
             profile.dyn_insts, profile.branch_insts,
             sorted(profile.path_counts.items()))
            for key, profile in sorted(profiles.items())),
        "caches": {
            "l1i": [caches.l1i.hits, caches.l1i.misses],
            "l1d": [caches.l1d.hits, caches.l1d.misses],
            "l2": [caches.l2.hits, caches.l2.misses],
            "dram_accesses": caches.dram_accesses},
    }


def test_traces_intervals_profiles_and_caches_match_recorded_pins(
        update_golden):
    pins = {name: _pins(name) for name in sorted(WORKLOADS)}
    if update_golden:
        GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True)
                          + "\n")
        pytest.skip(f"golden pins {GOLDEN.name} updated")
    expected = json.loads(GOLDEN.read_text())
    assert sorted(pins) == sorted(expected), "the workload set changed"
    drifted = sorted(f"{name}/{part}" for name in pins
                     for part in pins[name]
                     if pins[name][part] != expected[name][part])
    assert not drifted, f"{len(drifted)} pins changed: {drifted[:12]}"
