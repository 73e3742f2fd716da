"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

from perfbench import check, probe, spec, stats
from perfbench.tracer import Hook, Tracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        tracer.call("inner", inner, (), {})
        clock.now += 3.0
        tracer.call("inner", inner, (), {})

    tracer.call("outer", outer, (), {})
    assert tracer.self_s["outer"] == pytest.approx(4.0)
    assert tracer.self_s["inner"] == pytest.approx(4.0)
    assert tracer.calls == {"outer": 1, "inner": 2}
    outer_span = [s for s in tracer.spans if s[3] == "outer"][0]
    assert all(s[2] == outer_span[1] for s in tracer.spans
               if s[3] == "inner")


def test_observer_time_is_charged_to_no_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def observe(tracer_, args, kwargs, result):
        clock.now += 10.0           # e.g. hashing a stream

    def inner():
        clock.now += 1.0

    def outer():
        tracer.call("inner", inner, (), {}, observe)
        clock.now += 2.0

    tracer.call("outer", outer, (), {})
    assert tracer.self_s["inner"] == pytest.approx(1.0)
    assert tracer.self_s["outer"] == pytest.approx(2.0)
    assert tracer.excluded_s == pytest.approx(10.0)


def test_nested_call_that_raises_still_leaves_parent_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.now += 5.0
        raise ValueError("boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            tracer.call("failing", failing, (), {})

    tracer.call("outer", outer, (), {})
    assert tracer.self_s["outer"] == pytest.approx(1.0)
    assert tracer.self_s["failing"] == pytest.approx(5.0)


def test_missing_hook_target_is_reported_absent_not_raised():
    tracer = Tracer([
        Hook("gone", "perfbench.stats", "no_such_function"),
        Hook("gone", "perfbench.stats", "NoSuchClass.method"),
        Hook("gone", "perfbench.no_such_module", "f"),
        Hook("here", "perfbench.stats", "percentile"),
    ])
    tracer.install()
    try:
        assert stats.percentile([3, 1, 2], 50) == 2
    finally:
        tracer.uninstall()
    assert len(tracer.absent) == 3
    assert tracer.calls["here"] == 1
    assert stats.percentile.__name__ == "percentile"
    assert not hasattr(stats.percentile, "__wrapped__")


def test_observer_failure_is_reported_not_raised():
    tracer = Tracer()

    def observe(tracer_, args, kwargs, result):
        return args[5]

    assert tracer.call("layer", lambda x: x + 1, (1,), {}, observe) == 2
    assert "IndexError" in tracer.observer_errors["layer"]


# -- percentiles -------------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (499, 95.0), (500, 98.0), (999, 98.0), (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        values = list(range(count))
        cut = stats.percentile(values, expected)
        assert sum(1 for v in values if v > cut) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    assert stats.percentile(list(range(1, 101)), 99) == 99
    assert stats.percentile([4, 1, 3, 2], 50) == 2


# -- output check -------------------------------------------------------------------

RECORD = {"baseline": {"IO2": [1000, 12345.678, 17]},
          "oracle": {"IO2|simd": {"cycles": 900, "energy_pj": 1.5e4,
                                  "assignment": {"main/L1": "simd"}}}}


def _perturbed(rel):
    record = json.loads(json.dumps(RECORD))
    record["baseline"]["IO2"][1] *= 1 + rel
    return record


def test_output_check_accepts_1e12_and_rejects_1e6():
    assert check.mismatches(_perturbed(1e-12), RECORD) == []
    assert check.mismatches(_perturbed(1e-6), RECORD)


def test_output_check_is_exact_on_integers_and_assignments():
    record = json.loads(json.dumps(RECORD))
    record["oracle"]["IO2|simd"]["cycles"] = 901
    assert check.mismatches(record, RECORD)
    record = json.loads(json.dumps(RECORD))
    record["oracle"]["IO2|simd"]["assignment"]["main/L1"] = "gpp"
    assert check.mismatches(record, RECORD)
    record = json.loads(json.dumps(RECORD))
    record["oracle"]["IO2|simd"]["extra"] = 1
    assert check.mismatches(record, RECORD)


# -- workload inputs and the contract ----------------------------------------------------

def test_seed_zero_is_the_reanchor_slice_and_seeds_are_deterministic():
    assert spec.sweep_slice(0) == ("conv", "djpeg1", "181.mcf")
    assert len({spec.sweep_slice(seed) for seed in range(8)}) == 8
    first = spec.service_hits(7)
    second = spec.service_hits(7)
    assert [next(first) for _ in range(500)] == \
        [next(second) for _ in range(500)]
    assert spec.service_fresh(7) == spec.service_fresh(7)
    assert spec.service_fresh(7) != spec.service_fresh(8)


def test_service_hits_are_prefilled_and_fresh_keys_never_run_out():
    hits = spec.service_hits(3)
    prefilled = {(name, spec.SERVICE_HOT_INVOCATIONS)
                 for name in spec.SERVICE_HOT}
    assert {next(hits) for _ in range(1000)} == prefilled
    fresh = spec.service_fresh(3)
    assert len(set(fresh)) == len(fresh)
    assert not set(fresh) & prefilled
    assert len(fresh) * spec.SERVICE_COLD_INTERVAL_S >= spec.HARD_LIMIT_S


def test_references_cover_every_input():
    for scale in set(spec.SWEEP_SCALE.values()):
        reference = check.load_reference(f"sweep-{scale}")
        assert set(spec.sweep_pool_members()) <= set(reference)
    explore = check.load_reference("explore")
    assert {str(s) for s in range(spec.EXPLORE_SEED_POOL)} <= set(explore)
    service = check.load_reference("service")
    for name, max_invocations in spec.service_keys():
        assert service["keys"][f"{name}|{max_invocations}"] \
            in service["records"]


def test_benchmark_json_lists_what_the_worker_reports():
    from perfbench import worker
    from perfbench.tracer import TIME_LAYERS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in bench["workloads"]]
    assert gated == [w for w in spec.WORKLOADS if w in gated]
    per_layer = {m["name"] for m in bench["per_layer"]}
    reported = set(worker.COUNT_METRICS) | {"trace_overhead_frac",
                                            "unattributed_s",
                                            "unattributed_share"}
    reported |= set(worker.service_profile([]))
    for metric in worker.TIME_METRICS.values():
        reported |= {metric, worker.share_name(metric)}
    assert len(worker.TIME_METRICS) == len(TIME_LAYERS)
    assert per_layer == reported
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"setup_s", "design_points_per_s", "op_p50_ms",
                   "peak_rss_mb"}


# -- host-speed scaling ------------------------------------------------------------

def test_probe_factor_is_the_mean_ratio_in_the_window():
    ref = probe.REFERENCE_CHUNK_S
    samples = [(1.0, ref), (2.0, ref / 2), (3.0, ref / 4)]
    assert probe.factor(samples, 1.5, 3.0) == pytest.approx(3.0)
    assert probe.factor(samples) == pytest.approx(7.0 / 3)
    # A window without samples falls back to every sample.
    assert probe.factor(samples, 10.0, 11.0) == pytest.approx(7.0 / 3)
    with pytest.raises(RuntimeError):
        probe.factor([])


def test_service_metrics_are_scaled_window_by_window():
    from perfbench import worker

    ref = probe.REFERENCE_CHUNK_S
    w = worker.SERVICE_WINDOW_S
    # Window 0 runs at reference speed; window 1 at half of it, so it
    # completes half the requests, each taking twice as long.
    result = {
        "started": 100.0, "wall": 2 * w,
        "probe": [(100.0 + w / 2, ref), (100.0 + 1.5 * w, 2 * ref)],
        "samples": [[0.004, "cache", 0.001, True, 64, 100.0 + w / 4]] * 4
        + [[0.008, "cache", 0.001, True, 64, 100.0 + 1.25 * w]] * 2,
    }
    metrics, factors = worker.scaled_service_metrics(result)
    assert factors == pytest.approx([1.0, 0.5])
    # At reference speed both windows do the same work.
    assert metrics["design_points_per_s"] == pytest.approx(4 * 64 / w)
    assert metrics["op_p50_ms"] == pytest.approx(4.0)
