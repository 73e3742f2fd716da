"""Every window depth from one evaluation equals a run at that depth.

A multi-depth call (``max_invocations`` a tuple of depths) transforms
and times the first ``max(depths)`` invocations of each region once
and reads every depth's estimate off the same per-invocation runs
(:meth:`~repro.accel.base.BSAModel.evaluate_region_on_cores`).  The
oracle is the path it replaces: one ``run_sweep`` per depth.  Every
(core, subset, depth) cell of the paper space at depths (2, 4, 8, 16)
must match byte for byte, on its four DSE cores and on the explorer's
six, for benchmarks with DP-CGRA config-cache regions (conv, djpeg1,
453.povray) and without (181.mcf).

The prefix is exact only because DP-CGRA's ``config_cache``, the one
cross-invocation transform state, holds nothing but its own plan's
loop: after one transformed interval it is the state any deeper window
leaves.  The last test pins that invariant.
"""

import json

import pytest

from repro.accel import AnalysisContext
from repro.accel.base import SeqAllocator
from repro.accel.dp_cgra import DPCGRAModel
from repro.dse.sweep import record_to_json, run_sweep
from repro.explore.space import DEFAULT_CORES, DesignSpace
from repro.resilience import RetryPolicy
from repro.resilience.faultinject import ENV_VAR, reset_plan
from repro.workloads import WORKLOADS
from tests.transformed import transform

BENCHMARKS = ("conv", "djpeg1", "453.povray", "181.mcf")
SCALE = 0.1
DEPTHS = (2, 4, 8, 16)
SPACES = {
    "dse": DesignSpace.paper(max_invocations=DEPTHS),
    "explore": DesignSpace.paper(cores=DEFAULT_CORES,
                                 max_invocations=DEPTHS),
}


def _bytes(record):
    return json.dumps(record_to_json(record), sort_keys=True)


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_every_depth_equals_its_own_sweep(name, space):
    space = SPACES[space]
    kwargs = dict(names=[name], core_names=space.cores,
                  subsets=space.subsets, scale=SCALE,
                  with_amdahl=space.cores != DEFAULT_CORES)
    sweeps = run_sweep(max_invocations=space.max_invocations, **kwargs)
    assert tuple(sweeps) == space.max_invocations
    seen = set()
    for depth in space.max_invocations:
        record = sweeps[depth].results[name]
        oracle = run_sweep(max_invocations=depth, **kwargs).results[name]
        assert list(record.oracle) == list(oracle.oracle)
        assert len(record.oracle) == len(space.cores) * 16
        assert _bytes(record) == _bytes(oracle), (name, depth)
        seen.add(_bytes(record))
    # conv's regions run at most twice at this scale; the others'
    # depths cost differently, so the prefixes are really exercised.
    assert len(seen) > 1 or name == "conv"


def test_a_tuple_of_one_depth_is_the_single_depth_call():
    kwargs = dict(names=["conv"], scale=SCALE, with_amdahl=False)
    single = run_sweep(max_invocations=4, **kwargs)
    (depth, sweep), = run_sweep(max_invocations=(4,), **kwargs).items()
    assert depth == 4
    assert _bytes(sweep.results["conv"]) == _bytes(single.results["conv"])


def _manifests(root):
    """``{signature: (completed, failed names)}`` of a cache's sweep
    checkpoints."""
    out = {}
    for path in sorted((root / "sweeps").glob("*.json")):
        data = json.loads(path.read_text())
        out[path.stem] = (data["completed"],
                          sorted(f["name"] for f in data["failures"]))
    return out


def test_each_depth_keeps_the_checkpoint_of_its_own_sweep(
        tmp_path, monkeypatch):
    """Per depth, a multi-depth sweep leaves the cache entries and the
    checkpoint manifest a sweep at that depth alone leaves, failures
    included, and resumes from them."""
    kwargs = dict(names=["conv", "fft"], scale=0.05, with_amdahl=False,
                  retry_policy=RetryPolicy(base_backoff=0.01,
                                           max_backoff=0.05))
    monkeypatch.setenv(ENV_VAR, "flaky:task=fft:attempt=*")
    reset_plan()
    try:
        sweeps = run_sweep(max_invocations=(2, 4),
                           cache_dir=tmp_path / "multi", **kwargs)
        for depth in (2, 4):
            run_sweep(max_invocations=depth,
                      cache_dir=tmp_path / "single", **kwargs)
    finally:
        monkeypatch.delenv(ENV_VAR)
        reset_plan()
    assert [f["name"] for f in sweeps[2].stats.failures] == ["fft"]
    manifests = _manifests(tmp_path / "multi")
    assert len(manifests) == 2
    assert manifests == _manifests(tmp_path / "single")
    assert all(failed == ["fft"] for _, failed in manifests.values())

    resumed = run_sweep(max_invocations=(2, 4), resume=True,
                        cache_dir=tmp_path / "multi", **kwargs)
    stats = resumed[2].stats
    assert (stats.resumed, stats.misses) == (1, 1)
    assert all(failed == [] for _, failed
               in _manifests(tmp_path / "multi").values())


@pytest.mark.parametrize("name", ("djpeg1", "453.povray"))
def test_config_cache_after_one_interval_is_the_cache_after_k(name):
    """From a cold or a warm cache, the cache a DP-CGRA plan holds
    after one transformed interval is the cache it holds after k.
    (conv has no DP-CGRA region at this scale.)"""
    ctx = AnalysisContext(WORKLOADS[name].construct_tdg(scale=SCALE))
    model = DPCGRAModel()
    checked = 0
    for key in sorted(model.find_candidates(ctx)):
        intervals = ctx.intervals[key]
        for warm in (False, True):
            after = []
            for k in range(1, min(len(intervals), max(DEPTHS)) + 1):
                plan = model.find_candidates(ctx)[key]
                if warm:
                    plan["config_cache"].append(key)
                seq_alloc = SeqAllocator()
                for interval in intervals[:k]:
                    transform(model, ctx, plan, interval, 4, seq_alloc)
                after.append(tuple(plan["config_cache"]))
            assert after == [(key,)] * len(after), (key, warm)
            checked += 1
    assert checked, f"{name} has no DP-CGRA region"
