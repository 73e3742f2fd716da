"""Every BSA transform's output, pinned by digest.

One sha256 per (workload, BSA, fast/detailed, vector_len), taken over
every :class:`~repro.sim.trace.DynInst` slot of every
``transform_interval`` output, as the builder's ``rows`` hold it. Each
candidate region transforms its first ``MAX_INVOCATIONS`` invocations
with one :class:`SeqAllocator`, as ``BSAModel._transform_region``
does, and each digest starts from a fresh plan, so DP-CGRA's
configuration cache starts cold.

A refactor of the transforms must leave every digest as it is. To
bless an intentional model change:

    PYTHONPATH=src python -m pytest tests/test_transform_digests.py \
        --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.accel import BSA_REGISTRY, AnalysisContext
from repro.accel.base import SeqAllocator
from repro.workloads import WORKLOADS
from tests.transformed import transformed_rows

GOLDEN = Path(__file__).parent / "golden" / "transform_digests.json"

SCALE = 0.1
MAX_INVOCATIONS = 8

#: Every workload runs at the DSE cores' vector_len of 4; these also
#: run at 2 and 8, which a custom core config may set.
WIDTH_SUBSET = ("conv", "djpeg1", "181.mcf", "nnw", "stencil", "fft")
VECTOR_LENS = (2, 8)


def _inst_fields(inst):
    return (inst.seq, inst.uid, inst.opcode.value, inst.src_deps,
            inst.mem_dep, inst.mem_addr, inst.mem_lat, inst.mem_level,
            inst.taken, inst.mispredicted, inst.icache_lat, inst.accel,
            inst.extra_deps, inst.lat_override, inst.vector_width)


def _digest(ctx, bsa, detailed, vector_len):
    """sha256 over every transformed stream of every candidate
    region of one BSA."""
    model = BSA_REGISTRY[bsa](detailed=detailed)
    plans = model.find_candidates(ctx)
    digest = hashlib.sha256()
    for key in sorted(plans):
        plan = plans[key]
        seq_alloc = SeqAllocator()
        digest.update(repr(("region", key)).encode())
        for interval in ctx.intervals.get(key, ())[:MAX_INVOCATIONS]:
            stream = transformed_rows(model, ctx, plan, interval,
                                      vector_len, seq_alloc)
            digest.update(repr(("interval", interval)).encode())
            for inst in stream:
                digest.update(repr(_inst_fields(inst)).encode())
    return digest.hexdigest()


def _workload_digests(name, vector_lens):
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    out = {}
    for bsa in BSA_REGISTRY:
        for detailed in (False, True):
            mode = "detailed" if detailed else "fast"
            for vector_len in vector_lens:
                out[f"{name}/{bsa}/{mode}/vl{vector_len}"] = \
                    _digest(ctx, bsa, detailed, vector_len)
    return out


def test_transformed_streams_match_recorded_digests(update_golden):
    digests = {}
    for name in sorted(WORKLOADS):
        vector_lens = (4,) + (VECTOR_LENS if name in WIDTH_SUBSET
                              else ())
        digests.update(_workload_digests(name, vector_lens))
    if update_golden:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True)
                          + "\n")
        pytest.skip(f"golden digests {GOLDEN.name} updated")
    expected = json.loads(GOLDEN.read_text())
    assert sorted(digests) == sorted(expected), \
        "the (workload, BSA, mode, vector_len) grid changed"
    drifted = sorted(key for key in digests
                     if digests[key] != expected[key])
    assert not drifted, (
        f"{len(drifted)} transformed streams changed: {drifted[:12]}")
