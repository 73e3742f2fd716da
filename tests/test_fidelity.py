"""Tests for repro.fidelity: stats, sweep, artifact gate."""

import json
import math

import pytest

from repro.fidelity import (
    DEFAULT_BSAS, ErrorStats, canonical_fields,
    check_fidelity, dumps_fidelity, fidelity_shard, latest_fidelity,
    run_fidelity_sweep, stats_of, summarize_shards,
)
from repro.validation import ACCEL_VALIDATION_BENCHES

#: Small module-wide sweep: one benchmark per behavior class, both
#: host-core families, all four BSAs.
FIXTURE_BENCHES = ("conv", "cjpeg1", "181.mcf")
FIXTURE_CORES = ("IO2", "OOO2")


@pytest.fixture(scope="module")
def fidelity_payload():
    return run_fidelity_sweep(benchmarks=FIXTURE_BENCHES,
                              cores=FIXTURE_CORES, scale=0.2)


# ---------------------------------------------------------------------------
# ErrorStats.

class TestErrorStats:
    def test_summary_stats(self):
        stats = ErrorStats([0.1, 0.3, 0.2, 0.4])
        assert stats.count == 4
        assert stats.mean == pytest.approx(0.25)
        assert stats.p50 == pytest.approx(0.25)
        assert stats.max == pytest.approx(0.4)

    def test_empty_stats_are_zero(self):
        stats = ErrorStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.p95 == 0.0
        assert stats.max == 0.0

    def test_quantile_monotone(self):
        """Property: quantile(q) is monotone non-decreasing in q."""
        values = [((i * 37) % 101) / 101 for i in range(50)]
        stats = ErrorStats(values)
        qs = [i / 20 for i in range(21)]
        samples = [stats.quantile(q) for q in qs]
        assert samples == sorted(samples)
        assert samples[0] == min(values)
        assert samples[-1] == max(values)

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            ErrorStats([0.1]).quantile(1.5)

    def test_merge_commutative(self):
        """Property: merge order never changes the summary."""
        a = ErrorStats([0.1, 0.5, 0.3])
        b = ErrorStats([0.2, 0.9], infinite=1)
        assert a.merge(b).to_json() == b.merge(a).to_json()

    def test_merge_is_union(self):
        a = ErrorStats([0.1, 0.2])
        b = ErrorStats([0.3])
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.max == pytest.approx(0.3)
        # Merge is non-destructive.
        assert a.count == 2 and b.count == 1

    def test_merge_associative_via_snapshot(self):
        parts = [ErrorStats([0.1 * i, 0.05 * i]) for i in (1, 2, 3)]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert left.snapshot() == right.snapshot()

    def test_snapshot_roundtrip_lossless(self):
        stats = ErrorStats([0.3, 0.1, float("inf"), 0.2])
        clone = ErrorStats.from_snapshot(stats.snapshot())
        assert clone.snapshot() == stats.snapshot()
        assert clone.to_json() == stats.to_json()

    def test_infinite_poisons_mean_not_quantiles(self):
        stats = ErrorStats([0.1, 0.2])
        stats.add(float("inf"))
        assert stats.infinite == 1
        assert math.isinf(stats.mean)
        assert math.isinf(stats.max)
        assert stats.p50 == pytest.approx(0.15)
        assert stats.to_json()["mean"] == "inf"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ErrorStats().add(float("nan"))

    def test_stats_of_validation_points(self):
        from repro.validation import ValidationPoint
        points = [ValidationPoint("a", 1.1, 1.0),
                  ValidationPoint("b", 5.0, 0.0)]
        stats = stats_of(points)
        assert stats.count == 2
        assert stats.infinite == 1


# ---------------------------------------------------------------------------
# The sweep and its payload.

class TestFidelitySweep:
    def test_payload_shape(self, fidelity_payload):
        payload = fidelity_payload
        assert payload["schema"] == 1
        assert payload["config"]["benchmarks"] == \
            sorted(FIXTURE_BENCHES)
        assert set(payload["classes"].values()) == \
            {"regular", "semiregular", "irregular"}
        for bench in FIXTURE_BENCHES:
            for core in FIXTURE_CORES:
                point = payload["points"]["core"][bench][core]
                for metric in ("ipc", "ipe"):
                    leaf = point[metric]
                    assert set(leaf) == \
                        {"predicted", "reference", "error"}
                    assert leaf["reference"] > 0

    def test_engine_tracks_cycle_sim(self, fidelity_payload):
        """The headline fidelity claim: the TDG engine's IPC stays
        within a few percent of the independent cycle simulator."""
        overall = fidelity_payload["summary"]["engine_vs_cycle"]
        assert overall["ipc"]["overall"]["mean"] < 0.05
        assert overall["ipe"]["overall"]["mean"] < 0.05
        assert overall["ipc"]["overall"]["infinite"] == 0

    def test_bounds_cover_measured_pairs(self, fidelity_payload):
        """Every accel point's error is under its (bsa, class) bound —
        the bound is the max, so this is exact containment."""
        payload = fidelity_payload
        seen = set()
        for bench, by_bsa in payload["points"]["accel"].items():
            behavior = payload["classes"][bench]
            for bsa, point in by_bsa.items():
                bound = payload["bounds"][bsa][behavior]
                for metric in ("speedup", "energy"):
                    assert point[metric]["error"] <= bound + 1e-12
                seen.add((bsa, behavior))
        assert seen  # the fixture must exercise the accel tier

    def test_gate_passes_fresh_sweep(self, fidelity_payload):
        assert check_fidelity(fidelity_payload) == []
        assert check_fidelity(fidelity_payload, fidelity_payload) == []

    def test_worker_count_never_changes_bytes(self):
        serial = run_fidelity_sweep(benchmarks=("conv", "181.mcf"),
                                    cores=("IO2",), scale=0.1)
        pooled = run_fidelity_sweep(benchmarks=("conv", "181.mcf"),
                                    cores=("IO2",), scale=0.1,
                                    workers=2)
        assert dumps_fidelity(canonical_fields(serial)) == \
            dumps_fidelity(canonical_fields(pooled))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_fidelity_sweep(benchmarks=("nope",), cores=("IO2",))

    def test_canonical_dump_is_strict_json(self, fidelity_payload):
        text = dumps_fidelity(fidelity_payload)
        assert text.endswith("\n")
        assert "Infinity" not in text
        assert json.loads(text) == fidelity_payload

    def test_metrics_exported(self):
        from repro.obs import isolated
        shard = fidelity_shard({"name": "conv", "cores": ("IO2",),
                                "bsas": ("simd",), "scale": 0.1,
                                "max_invocations": 2})
        with isolated() as (registry, _recorder):
            summarize_shards({"conv": shard})
            assert registry.total("repro_fidelity_points_total") > 0


@pytest.mark.parametrize("bsa", DEFAULT_BSAS)
def test_per_bsa_validation_slice(bsa):
    """Each BSA sweeps a slice of its published validation suite and
    lands fast-vs-detailed mean error inside the artifact ceiling."""
    from repro.fidelity import ACCEL_MEAN_CEILING
    benches = ACCEL_VALIDATION_BENCHES[bsa][:4]
    payload = run_fidelity_sweep(benchmarks=benches, cores=("IO2",),
                                 bsas=(bsa,), scale=0.2)
    groups = payload["summary"]["fast_vs_detailed"].get(bsa)
    assert groups is not None, f"no {bsa} points on {benches}"
    for metric in ("speedup", "energy"):
        mean = groups[metric]["overall"]["mean"]
        assert mean != "inf"
        assert mean <= ACCEL_MEAN_CEILING


# ---------------------------------------------------------------------------
# Golden snapshot of the fidelity summary.

def test_fidelity_summary_matches_golden(fidelity_payload,
                                         update_golden):
    from tests.test_golden_regression import check_golden
    snapshot = {
        "config": fidelity_payload["config"],
        "classes": fidelity_payload["classes"],
        "summary": fidelity_payload["summary"],
        "bounds": fidelity_payload["bounds"],
    }
    check_golden("fidelity_summary", snapshot, update_golden)


# ---------------------------------------------------------------------------
# The regression gate.

class TestCheckFidelity:
    def _mutated(self, payload, **top):
        clone = json.loads(json.dumps(payload))
        clone.update(top)
        return clone

    def test_schema_mismatch(self, fidelity_payload):
        bad = self._mutated(fidelity_payload, schema=99)
        assert any("schema" in f for f in check_fidelity(bad))

    def test_config_mismatch_refuses_comparison(self,
                                                fidelity_payload):
        other = self._mutated(fidelity_payload)
        other["config"]["scale"] = 0.9
        failures = check_fidelity(other, fidelity_payload)
        assert any("config mismatch" in f for f in failures)

    def test_error_regression_detected(self, fidelity_payload):
        worse = self._mutated(fidelity_payload)
        block = worse["summary"]["engine_vs_cycle"]["ipc"]["overall"]
        block["mean"] = 0.12   # well past baseline * 1.25 + slack
        failures = check_fidelity(worse, fidelity_payload)
        assert any("ipc.overall.mean regressed" in f
                   for f in failures)

    def test_ceiling_enforced_without_baseline(self,
                                               fidelity_payload):
        worse = self._mutated(fidelity_payload)
        worse["summary"]["engine_vs_cycle"]["ipc"]["overall"]["mean"] \
            = 0.5
        assert any("exceeds ceiling" in f
                   for f in check_fidelity(worse))

    def test_infinite_points_always_fail(self, fidelity_payload):
        worse = self._mutated(fidelity_payload)
        block = worse["summary"]["engine_vs_cycle"]["ipe"]["overall"]
        block["infinite"] = 2
        block["mean"] = "inf"
        failures = check_fidelity(worse, fidelity_payload)
        assert any("infinite error point" in f for f in failures)

    def test_checked_in_artifact_passes(self):
        """The repo's own FIDELITY baseline satisfies its own gate."""
        from repro.fidelity import load_fidelity
        path = latest_fidelity()
        assert path is not None, "no FIDELITY_*.json checked in"
        payload = load_fidelity(path)
        assert check_fidelity(payload) == []


# ---------------------------------------------------------------------------
# The service's ``arbitration`` field after model arbitration's removal.

class TestArbitrationThreading:
    SPEC = {"bounds": {}, "max_error": 0.1}

    def test_service_normalizes_arbitration(self):
        """A non-null ``arbitration`` is refused by both request
        normalizers, naming the removal; absent or null passes and
        leaves no trace in the evaluation parameters."""
        from repro.service.app import (
            BadRequest, _normalize_explore, _normalize_params,
        )
        for normalize, body in ((_normalize_params, {}),
                                (_normalize_explore,
                                 {"benchmarks": ["conv"]})):
            for spec in (self.SPEC, "fast please", {"bounds": {}}):
                with pytest.raises(BadRequest,
                                   match="'arbitration' was removed"):
                    normalize(dict(body, arbitration=spec))
        assert (_normalize_params({"arbitration": None})
                == _normalize_params({}))
        assert "arbitration" not in _normalize_params({})

    def test_service_key_splits_on_arbitration(self):
        """There is nothing left to split on: a null ``arbitration``
        keys and builds the same task as an absent one, under the
        historical cache key."""
        from repro.dse.cache import cache_key
        from repro.service.app import (
            EvaluationService, ServiceConfig, _normalize_params,
        )
        service = EvaluationService(
            ServiceConfig(use_cache=False, workers=1))
        request = dict(cores=["IO2"], subsets=[[]], scale=0.5,
                       max_invocations=2, with_amdahl=False)
        plain, nulled = (
            service._task_and_key("conv", _normalize_params(body))
            for body in (request, dict(request, arbitration=None)))
        assert plain == nulled
        assert "arbitration" not in plain[0]
        assert plain[1] == cache_key("conv", 0.5, ("IO2",), ((),), 2,
                                     False)
