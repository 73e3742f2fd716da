"""Cache-key and cache-invalidation tests for the sweep engine.

The on-disk cache must recompute whenever anything that shapes a
result changes — workload scale, any core-config parameter, the BSA
subsets, evaluation knobs, or the modeling source itself (the engine
version hash) — and must shrug off corrupt or truncated entries with
a warning instead of crashing the sweep.
"""

import json

import pytest

import repro.dse.cache as cache_mod
from repro.core_model import core_by_name
from repro.dse import dumps_sweep, run_sweep
from repro.dse.cache import (
    CACHE_FORMAT, SweepCache, cache_key, default_cache_dir,
    engine_version_hash,
)

#: Tiny sweep configuration used by the functional tests.
NAMES = ("conv", "fft")
SUBSETS = ((), ("simd",))
CORES = ("IO2", "OOO2")
KW = dict(names=NAMES, core_names=CORES, subsets=SUBSETS, scale=0.1,
          max_invocations=2, with_amdahl=False)

KEY_ARGS = dict(name="conv", scale=0.1, core_names=CORES,
                subsets=SUBSETS, max_invocations=2, with_amdahl=False)


def key_with(**overrides):
    return cache_key(**{**KEY_ARGS, **overrides})


class TestCacheKey:
    def test_key_is_stable(self):
        assert key_with() == key_with()
        assert len(key_with()) == 64
        int(key_with(), 16)   # hex digest

    def test_benchmark_name_changes_key(self):
        assert key_with(name="fft") != key_with()

    def test_scale_changes_key(self):
        assert key_with(scale=0.2) != key_with()

    def test_core_list_changes_key(self):
        assert key_with(core_names=("IO2",)) != key_with()

    def test_subsets_change_key(self):
        assert key_with(subsets=((),)) != key_with()

    def test_max_invocations_changes_key(self):
        assert key_with(max_invocations=4) != key_with()

    def test_with_amdahl_changes_key(self):
        assert key_with(with_amdahl=True) != key_with()

    def test_engine_hash_changes_key(self):
        assert key_with(engine_hash="deadbeef") != key_with()

    def test_core_config_mutation_changes_key(self, monkeypatch):
        """The key binds core *parameters*, not just core names."""
        before = key_with()
        monkeypatch.setattr(core_by_name("OOO2"), "rob_size", 128)
        assert key_with() != before

    def test_engine_hash_is_memoized_and_stable(self):
        assert engine_version_hash() == engine_version_hash()
        assert len(engine_version_hash()) == 16

    def test_source_tree_hashed_once_per_process(self, monkeypatch):
        """Key construction must not rehash the modeling source tree.

        A long-lived server builds a cache key per request; the
        digest walks and reads every modeling source file, so it has
        to be computed exactly once per process.
        """
        calls = []
        real = cache_mod._compute_engine_hash

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cache_mod, "_compute_engine_hash",
                            counting)
        cache_mod.reset_engine_hash()
        try:
            first = key_with()
            for _ in range(10):
                assert key_with() == first
            engine_version_hash()
            assert len(calls) == 1
        finally:
            cache_mod.reset_engine_hash()

    def test_reset_engine_hash_forces_recompute(self, monkeypatch):
        calls = []
        real = cache_mod._compute_engine_hash

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cache_mod, "_compute_engine_hash",
                            counting)
        cache_mod.reset_engine_hash()
        try:
            engine_version_hash()
            cache_mod.reset_engine_hash()
            engine_version_hash()
            assert len(calls) == 2
        finally:
            cache_mod.reset_engine_hash()


class TestPinnedBytes:
    """Literal values of the evaluation codec: the cache key and the
    task dict.  Every cache entry on disk was written under these
    bytes, so a change here is a deliberate cache invalidation, never
    a side effect of refactoring the layers that carry them."""

    def test_cache_key_literal(self):
        assert cache_key("conv", 0.5, ("IO2",), ((),), 2, False,
                         engine_hash="0" * 16) == (
            "d7e5d7d569d5f8f0ea2c36e46e75536550be603ed87c36334f29ccb5"
            "da12252e")

    def test_task_dict_literal(self):
        from repro.dse.parallel import make_task
        assert make_task("conv", ("IO2",), ((),), scale=0.5,
                         max_invocations=2, with_amdahl=False) == {
            "name": "conv", "core_names": ("IO2",), "subsets": ((),),
            "scale": 0.5, "max_invocations": 2, "with_amdahl": False}
        assert make_task("conv", ("IO2",), ((),), scale=0.5,
                         max_invocations=(2, 8))["max_invocations"] \
            == (2, 8)


class TestInvalidation:
    def test_scale_change_forces_recompute(self, tmp_path):
        cold = run_sweep(cache_dir=tmp_path, **KW)
        assert cold.stats.misses == len(NAMES)
        rescaled = run_sweep(cache_dir=tmp_path,
                             **{**KW, "scale": 0.2})
        assert rescaled.stats.misses == len(NAMES)
        assert rescaled.stats.hits == 0

    def test_core_config_change_forces_recompute(self, tmp_path,
                                                 monkeypatch):
        run_sweep(cache_dir=tmp_path, **KW)
        monkeypatch.setattr(core_by_name("OOO2"), "branch_penalty", 9)
        again = run_sweep(cache_dir=tmp_path, **KW)
        assert again.stats.misses == len(NAMES)

    def test_engine_hash_change_forces_recompute(self, tmp_path,
                                                 monkeypatch):
        run_sweep(cache_dir=tmp_path, **KW)
        monkeypatch.setattr(cache_mod, "engine_version_hash",
                            lambda: "0123456789abcdef")
        again = run_sweep(cache_dir=tmp_path, **KW)
        assert again.stats.misses == len(NAMES)

    def test_unchanged_inputs_hit(self, tmp_path):
        run_sweep(cache_dir=tmp_path, **KW)
        warm = run_sweep(cache_dir=tmp_path, **KW)
        assert warm.stats.hits == len(NAMES)
        assert warm.stats.misses == 0


class TestCorruption:
    def _cache_files(self, root):
        return sorted(root.rglob("*.json"))

    def test_truncated_entry_recomputed_with_warning(self, tmp_path):
        cold = run_sweep(cache_dir=tmp_path, **KW)
        reference = dumps_sweep(cold)
        victim = self._cache_files(tmp_path)[0]
        victim.write_text(victim.read_text()[:40])   # truncate
        with pytest.warns(RuntimeWarning, match="corrupt sweep cache"):
            again = run_sweep(cache_dir=tmp_path, **KW)
        assert again.stats.misses == 1
        assert again.stats.hits == len(NAMES) - 1
        assert dumps_sweep(again) == reference

    def test_garbage_entry_recomputed_with_warning(self, tmp_path):
        cold = run_sweep(cache_dir=tmp_path, **KW)
        reference = dumps_sweep(cold)
        for victim in self._cache_files(tmp_path):
            victim.write_text("not json at all {]")
        with pytest.warns(RuntimeWarning, match="corrupt sweep cache"):
            again = run_sweep(cache_dir=tmp_path, **KW)
        assert again.stats.misses == len(NAMES)
        assert dumps_sweep(again) == reference

    def test_corrupt_entry_is_deleted_then_rewritten(self, tmp_path):
        run_sweep(cache_dir=tmp_path, **KW)
        victim = self._cache_files(tmp_path)[0]
        victim.write_text("{")
        with pytest.warns(RuntimeWarning):
            run_sweep(cache_dir=tmp_path, **KW)
        # Entry was replaced by a valid one: warm run is all hits.
        warm = run_sweep(cache_dir=tmp_path, **KW)
        assert warm.stats.hits == len(NAMES)

    def test_stale_format_is_silent_miss(self, tmp_path):
        run_sweep(cache_dir=tmp_path, **KW)
        victim = self._cache_files(tmp_path)[0]
        payload = json.loads(victim.read_text())
        payload["format"] = CACHE_FORMAT + 1
        victim.write_text(json.dumps(payload))
        again = run_sweep(cache_dir=tmp_path, **KW)
        assert again.stats.misses == 1


class TestSweepCacheStoreLoad:
    def test_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        record = {"suite": "tpt", "baseline": {"IO2": [1, 2.0, 3]}}
        key = "ab" * 32
        cache.store(key, record)
        assert key in cache
        assert cache.load(key) == record

    def test_missing_is_none(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.load("cd" * 32) is None
        assert ("cd" * 32) not in cache

    def test_entry_under_another_key_is_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("ab" * 32, {"x": 1})
        misplaced = cache.path_for("cd" * 32)
        misplaced.parent.mkdir(parents=True)
        misplaced.write_bytes(cache.path_for("ab" * 32).read_bytes())
        with pytest.warns(RuntimeWarning, match="wrong key"):
            assert cache.load("cd" * 32) is None
        assert not misplaced.exists()
        assert (cache.quarantine_dir / misplaced.name).exists()

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("ef" * 32, {"x": 1})
        leftovers = [p for p in tmp_path.rglob("*")
                     if p.is_file() and p.suffix != ".json"]
        assert leftovers == []

    def test_iter_entries_skips_sweep_checkpoints(self, tmp_path):
        run_sweep(["conv"], scale=0.1, cache_dir=tmp_path)
        # Caches written before sweeps stopped keeping progress
        # manifests still hold them under sweeps/.
        (tmp_path / "sweeps").mkdir()
        (tmp_path / "sweeps" / ("e2" * 16 + ".json")).write_text(
            json.dumps({"format": 1, "signature": "e2" * 16,
                        "completed": {"conv": "ab" * 32},
                        "failures": []}, sort_keys=True))
        entries = list(SweepCache(tmp_path).iter_entries())
        assert len(entries) == 1
        assert "record" in entries[0][1]

    def test_cached_sweep_keeps_no_progress_manifest(self, tmp_path):
        run_sweep(["conv"], scale=0.1, cache_dir=tmp_path)
        assert not (tmp_path / "sweeps").exists()

    def test_default_cache_dir_env_override(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"
