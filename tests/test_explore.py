"""Tests for the surrogate-assisted exploration subsystem
(``repro.explore``) and its satellites: the shared canonical-artifact
helper (``repro.artifacts``), Pareto-frontier extraction in
``dse/report.py``, and ``repro cache export`` training records.

Expensive exact evaluations run at tiny scale through one shared
on-disk cache (module-scoped fixture), so the determinism tests pay
for each (core, subset) triple once.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts import (
    artifact_filename, canonical_fields, dumps_artifact,
    latest_artifact, stamp, write_artifact,
)
from repro.dse.cache import SweepCache, cache_key, export_records
from repro.core_model.config import DSE_CORES
from repro.dse.report import frontier_table, pareto_frontier
from repro.dse.sweep import run_sweep
from repro.explore import run_explore
from repro.explore.acquire import peel_fronts, select_batch, uncovered
from repro.explore.evaluate import ExactEvaluator
from repro.explore.artifact import (
    check_explore, dumps_explore, explore_filename, frontier_recall,
    latest_explore, load_explore, write_explore,
)
from repro.explore.loop import training_points_from_records
from repro.explore.space import (
    DEFAULT_CORES, DesignPoint, DesignSpace, FEATURE_NAMES,
    point_features,
)
from repro.explore.surrogate import (
    _MIN_LEAF, RidgeModel, SurrogateEnsemble, _best_stump, _partitions,
    _Stump,
)

#: Tiny-but-real exploration configuration: 64-point paper space at
#: minimum workload scale, shared by every loop-level test so the
#: cache stays warm across them.
EXPLORE_KW = dict(benchmarks=("conv",), budget=8, seed=0, scale=0.1)


@pytest.fixture(scope="module")
def explore_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("explore-cache"))


@pytest.fixture(scope="module")
def paper_space():
    return DesignSpace.paper(max_invocations=(2,))


@pytest.fixture(scope="module")
def explore_payload(explore_cache, paper_space):
    return run_explore(space=paper_space, cache_dir=explore_cache,
                       **EXPLORE_KW)


# ---------------------------------------------------------------------------
# DesignSpace


class TestDesignSpace:
    def test_default_space_has_a_million_points(self):
        space = DesignSpace()
        assert space.size >= 10 ** 6

    def test_paper_space_is_fig12(self):
        space = DesignSpace.paper()
        assert space.size == 64
        points = list(space)
        assert len(points) == 64
        assert len({p.key() for p in points}) == 64
        for p in points:
            assert p.freq_ghz == 2.0
            assert p.sizing == (0, 0, 0, 0)

    def test_index_bijection(self):
        space = DesignSpace()
        rng = random.Random(7)
        for _ in range(200):
            index = rng.randrange(space.size)
            point = space.point_at(index)
            assert space.index_of(point) == index

    def test_index_bounds_checked(self):
        space = DesignSpace.paper()
        with pytest.raises(IndexError):
            space.point_at(64)
        with pytest.raises(IndexError):
            space.point_at(-1)

    def test_absent_bsa_sizing_canonicalized(self):
        point = DesignPoint("OOO2", ("simd",), sizing=(3, 5, 2, 7))
        assert point.sizing == (3, 0, 0, 0)
        same = DesignPoint("OOO2", ("simd",), sizing=(3, 0, 0, 0))
        assert point == same and point.key() == same.key()

    def test_subset_order_normalized(self):
        a = DesignPoint("IO2", ("trace_p", "simd"))
        b = DesignPoint("IO2", ("simd", "trace_p"))
        assert a.subset == b.subset == ("simd", "trace_p")

    def test_point_json_roundtrip(self):
        space = DesignSpace()
        point = space.point_at(123456)
        again = DesignPoint.from_json(point.to_json())
        assert again == point
        assert again.key() == point.key()

    def test_sample_deterministic_and_distinct(self):
        space = DesignSpace()
        first = space.sample(50, seed=3)
        second = space.sample(50, seed=3)
        assert [p.key() for p in first] == [p.key() for p in second]
        assert len({p.key() for p in first}) == 50
        other = space.sample(50, seed=4)
        assert [p.key() for p in first] != [p.key() for p in other]

    def test_stratified_sample_covers_subsets(self):
        space = DesignSpace()
        points = space.sample_stratified(16, seed=0)
        assert len({p.subset for p in points}) == 16
        again = space.sample_stratified(16, seed=0)
        assert [p.key() for p in points] == [p.key() for p in again]

    def test_stratified_sample_exhausts_small_space(self):
        space = DesignSpace.paper()
        points = space.sample_stratified(100, seed=0)
        assert len({p.key() for p in points}) == 64

    def test_features_match_names(self):
        space = DesignSpace()
        for index in (0, space.size // 2, space.size - 1):
            features = space.features(space.point_at(index))
            assert len(features) == len(FEATURE_NAMES)
            assert all(math.isfinite(float(v)) for v in features)

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpace(cores=())
        with pytest.raises(KeyError):
            DesignSpace(cores=("NOPE",))
        with pytest.raises(ValueError):
            DesignSpace(subsets=((), ()))
        with pytest.raises(ValueError):
            DesignSpace(subsets=(("bogus_bsa",),))
        with pytest.raises(ValueError):
            DesignSpace(sizing_levels=(99,))
        with pytest.raises(ValueError):
            DesignSpace(max_invocations=(0,))


# ---------------------------------------------------------------------------
# Surrogate


def _training_set(n=24, seed=5):
    space = DesignSpace()
    points = space.sample(n, seed=seed)
    rows = [point_features(p) for p in points]
    rng = random.Random(seed)
    targets = {
        "speedup": [1.0 + 0.5 * len(p.subset) + rng.random()
                    for p in points],
        "energy_eff": [0.5 + 0.3 * len(p.subset) + rng.random()
                       for p in points],
    }
    return rows, targets


def _seed_best_stump(rows, residuals):
    """The oracle: ``surrogate._best_stump`` as it was when each round
    re-sorted every feature and re-scored every cut, copied verbatim
    (``_Stump`` and ``_MIN_LEAF`` imported)."""
    n = len(rows)
    best = None
    best_sse = None
    for j in range(len(rows[0])):
        order = sorted(range(n), key=lambda i: (rows[i][j], i))
        for cut in range(_MIN_LEAF, n - _MIN_LEAF + 1):
            lo = rows[order[cut - 1]][j]
            hi = rows[order[cut]][j]
            if lo == hi:
                continue
            left_ids = order[:cut]
            right_ids = order[cut:]
            left = math.fsum(residuals[i] for i in left_ids) \
                / len(left_ids)
            right = math.fsum(residuals[i] for i in right_ids) \
                / len(right_ids)
            sse = math.fsum(
                (residuals[i] - left) ** 2 for i in left_ids) \
                + math.fsum(
                    (residuals[i] - right) ** 2 for i in right_ids)
            if best_sse is None or sse < best_sse - 1e-15:
                best_sse = sse
                best = _Stump(j, (lo + hi) / 2.0, left, right)
    return best


def _stump_cases():
    """Seeded (rows, residuals) with duplicate columns, constant
    columns and exactly tied SSEs."""
    cases = []
    for seed in range(6):
        rng = random.Random(seed)
        points = DesignSpace().sample(10 + 3 * seed, seed=seed)
        rows = []
        for point in points:
            row = list(point_features(point))
            # a duplicate of the first column, a constant column, and
            # a mirrored copy (the same splits with sides swapped)
            rows.append(row + [row[0], 1.0, -row[0]])
        residuals = [rng.choice((-1.0, 0.0, 0.5, 1.0)) if seed % 2
                     else rng.gauss(0.0, 1.0) for _ in rows]
        cases.append((rows, residuals))
    # Symmetric residuals on a column and its reverse: distinct splits
    # with exactly equal SSE.
    values = [float(v) for v in range(8)]
    rows = [[v, 7.0 - v, v, 3.0] for v in values]
    cases.append((rows, [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
    return cases


def _stump_fields(stump):
    return None if stump is None else (
        stump.feature, stump.threshold, stump.left, stump.right)


class TestSurrogate:
    def test_stumps_over_distinct_partitions_match_the_full_scan(self):
        for rows, residuals in _stump_cases():
            partitions = _partitions(rows)
            lefts = [frozenset(left) for _, _, left, _ in partitions]
            assert len(lefts) == len(set(lefts))
            residuals = list(residuals)
            # Forty boosting rounds, as RidgeModel.fit runs them.
            for _ in range(40):
                expected = _seed_best_stump(rows, residuals)
                actual = _best_stump(partitions, residuals)
                assert _stump_fields(actual) == _stump_fields(expected)
                if expected is None:
                    break
                for i, row in enumerate(rows):
                    residuals[i] -= 0.3 * expected.value(row)

    def test_fit_is_reproducible(self):
        rows, targets = _training_set()
        a = SurrogateEnsemble(seed=11).fit(rows, targets)
        b = SurrogateEnsemble(seed=11).fit(rows, targets)
        probe = point_features(DesignSpace().point_at(999_999))
        assert a.predict(probe) == b.predict(probe)
        for name in a.target_names:
            for ma, mb in zip(a.members[name], b.members[name]):
                assert ma.weights == mb.weights

    def test_different_seed_changes_bootstraps(self):
        rows, targets = _training_set()
        a = SurrogateEnsemble(seed=1).fit(rows, targets)
        b = SurrogateEnsemble(seed=2).fit(rows, targets)
        # member 0 is the full fit: identical regardless of seed
        assert a.members["speedup"][0].weights \
            == b.members["speedup"][0].weights
        assert any(
            ma.weights != mb.weights
            for ma, mb in zip(a.members["speedup"][1:],
                              b.members["speedup"][1:]))

    def test_single_member_has_zero_uncertainty(self):
        rows, targets = _training_set()
        model = SurrogateEnsemble(n_members=1).fit(rows, targets)
        _, std = model.predict(rows[0])["speedup"]
        assert std == 0.0

    def test_prediction_finite_and_positive(self):
        rows, targets = _training_set()
        model = SurrogateEnsemble().fit(rows, targets)
        for index in (0, 123, 456_789):
            out = model.predict(
                point_features(DesignSpace().point_at(index)))
            for mean, std in out.values():
                assert math.isfinite(mean) and mean > 0
                assert math.isfinite(std) and std >= 0.0

    def test_novelty_zero_on_training_row(self):
        rows, targets = _training_set()
        model = SurrogateEnsemble().fit(rows, targets)
        assert model.novelty(rows[0]) == 0.0
        far = point_features(DesignSpace().point_at(1))
        assert model.novelty(far) >= 0.0

    def test_nonpositive_targets_survive_log_floor(self):
        rows, targets = _training_set()
        targets["speedup"][0] = 0.0
        model = SurrogateEnsemble().fit(rows, targets)
        mean, _ = model.predict(rows[0])["speedup"]
        assert math.isfinite(mean)

    def test_boosting_fits_plateaus_better(self):
        # A plateau target (constant per group) is exactly the shape
        # the linear member cannot express.
        rows, _ = _training_set(n=30)
        plateau = [4.0 if row[0] > 2 else 1.5 for row in rows]
        targets = {"speedup": plateau, "energy_eff": plateau}
        boosted = SurrogateEnsemble().fit(rows, targets)
        linear = SurrogateEnsemble(boost_rounds=0).fit(rows, targets)
        assert boosted.mean_abs_log_error(rows, targets) \
            < linear.mean_abs_log_error(rows, targets)

    def test_ridge_rejects_empty(self):
        with pytest.raises(ValueError):
            RidgeModel().fit([], [])
        with pytest.raises(ValueError):
            SurrogateEnsemble().fit([], {})

    def test_numpy_and_array_rows_agree(self):
        numpy = pytest.importorskip("numpy")
        from array import array
        rows, targets = _training_set()
        as_arrays = [array("d", [float(v) for v in row])
                     for row in rows]
        a = SurrogateEnsemble(seed=3).fit(rows, targets)
        b = SurrogateEnsemble(seed=3).fit(as_arrays, targets)
        probe = rows[7]
        assert a.predict(probe) == b.predict(array(
            "d", [float(v) for v in probe]))

    def test_scoring_matches_member_by_member_oracle(self):
        rows, targets = _training_set()
        model = SurrogateEnsemble(seed=7).fit(rows, targets)
        _assert_scores_match_oracle(model, rows, _probe_vectors(
            len(FEATURE_NAMES), 200, seed=13))

    def test_degenerate_bootstrap_fallback_scores_match_oracle(self):
        # Feature 0 is non-zero in two rows only: a bootstrap that
        # misses both makes the column constant, and without a ridge
        # its normal matrix is singular, so the member falls back to
        # the full-data fit and shares member 0's geometry.
        rng = random.Random(3)
        rows = [(1.0 if i < 2 else 0.0,)
                + tuple(rng.uniform(-2.0, 2.0) for _ in range(4))
                for i in range(12)]
        targets = {
            "speedup": [1.0 + rng.random() for _ in rows],
            "energy_eff": [0.5 + rng.random() for _ in rows],
        }
        for seed in range(50):
            model = SurrogateEnsemble(l2=0.0, seed=seed).fit(
                rows, targets)
            members = model.members["speedup"]
            if any(m.geometry() == members[0].geometry()
                   for m in members[1:]):
                break
        else:
            pytest.fail("no seed triggered the bootstrap fallback")
        assert len(model._geometries) < model.n_members
        _assert_scores_match_oracle(model, rows, _probe_vectors(
            5, 200, seed=seed))


def _probe_vectors(width, n, seed):
    """*n* seeded feature vectors: training-like 0/1 and small-integer
    entries mixed with arbitrary floats."""
    rng = random.Random(seed)
    choices = (0.0, 1.0, 2.0, 4.0, 0.5)
    return [tuple(rng.choice(choices) if rng.random() < 0.5
                  else rng.uniform(-8.0, 8.0) for _ in range(width))
            for _ in range(n)]


def _oracle_standardize(model, features):
    return [(features[j] - model.means[j]) / model.scales[j]
            for j in range(len(model.means))]


def _oracle_predict_log(model, features):
    """RidgeModel.predict_log as it was before the float fast path:
    standardized per member, stump leaves scaled per call."""
    row = _oracle_standardize(model, features)
    linear = [model.weights[j] * row[j] for j in range(len(row))]
    linear.append(model.weights[-1])
    terms = [math.fsum(linear)]
    terms.extend(model.boost_lr * stump.value(row)
                 for stump in model.stumps)
    return math.fsum(terms)


def _oracle_predict(ensemble, features):
    out = {}
    for name in ensemble.target_names:
        logs = [_oracle_predict_log(model, features)
                for model in ensemble.members[name]]
        mean = math.fsum(logs) / len(logs)
        std = 0.0
        if len(logs) > 1:
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in logs)
                            / len(logs))
        out[name] = (math.exp(mean), std)
    return out


def _oracle_novelty(ensemble, train_rows, features):
    anchor = ensemble.members[ensemble.target_names[0]][0]
    row = _oracle_standardize(anchor, features)
    best = None
    for train in train_rows:
        train = _oracle_standardize(anchor, train)
        dist = math.fsum(abs(row[j] - train[j])
                         for j in range(len(row))) / len(row)
        if best is None or dist < best:
            best = dist
    return best


def _bits(prediction):
    return {name: (mean.hex(), std.hex())
            for name, (mean, std) in prediction.items()}


def _assert_scores_match_oracle(model, train_rows, probes):
    from array import array
    try:
        import numpy
    except ImportError:
        numpy = None
    for probe in list(train_rows) + probes:
        expected = _bits(_oracle_predict(model, probe))
        novelty = _oracle_novelty(model, train_rows, probe).hex()
        forms = [tuple(probe), array("d", probe)]
        if numpy is not None:
            forms.append(numpy.asarray(probe, dtype=numpy.float64))
        for form in forms:
            assert _bits(model.predict(form)) == expected
            assert model.novelty(form).hex() == novelty


# ---------------------------------------------------------------------------
# Pareto frontier (dse/report satellite)


def _rows(coords):
    return [{"design": f"d{i}", "speedup": x, "energy_eff": y}
            for i, (x, y) in enumerate(coords)]


class TestParetoFrontier:
    def test_dominated_points_filtered(self):
        rows = _rows([(1, 4), (2, 3), (3, 1), (2, 2), (1.5, 2.5)])
        frontier = pareto_frontier(rows)
        assert [r["design"] for r in frontier] == ["d0", "d1", "d2"]

    def test_sorted_by_ascending_x(self):
        rows = _rows([(3, 1), (1, 4), (2, 3)])
        frontier = pareto_frontier(rows)
        assert [r["speedup"] for r in frontier] == [1, 2, 3]

    def test_duplicates_keep_one_representative(self):
        rows = _rows([(2, 2), (2, 2), (1, 3)])
        frontier = pareto_frontier(rows)
        assert len(frontier) == 2
        assert sum(1 for r in frontier
                   if (r["speedup"], r["energy_eff"]) == (2, 2)) == 1

    def test_duplicate_representative_is_smallest_tie_key(self):
        rows = list(reversed(_rows([(2, 2), (2, 2)])))
        frontier = pareto_frontier(rows)
        assert frontier[0]["design"] == "d0"

    def test_input_order_irrelevant(self):
        coords = [(i % 7 + 1, (i * 13) % 11 + 1) for i in range(40)]
        rows = _rows(coords)
        expected = pareto_frontier(rows)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert pareto_frontier(shuffled) == expected

    def test_single_and_empty(self):
        assert pareto_frontier([]) == []
        only = _rows([(1, 1)])
        assert pareto_frontier(only) == only

    def test_weak_domination_is_dominated(self):
        rows = _rows([(2, 2), (2, 3)])
        frontier = pareto_frontier(rows)
        assert [r["design"] for r in frontier] == ["d1"]

    def test_frontier_table_ranks(self):
        rows = _rows([(3, 1), (1, 4), (2, 3), (2, 2)])
        table = frontier_table(rows)
        assert [r["frontier_rank"] for r in table] == [1, 2, 3]
        assert [r["design"] for r in table] == ["d1", "d2", "d0"]


# ---------------------------------------------------------------------------
# Acquisition


def _prediction_rows(coords):
    return [{"key": f"k{i:02d}", "speedup": x, "energy_eff": y,
             "uncertainty": u}
            for i, (x, y, u) in enumerate(coords)]


class TestAcquire:
    def test_peel_fronts_ranks(self):
        rows = _prediction_rows([
            (1, 4, 0), (3, 1, 0),       # front 1
            (1, 3, 0), (2, 1, 0),       # front 2
            (1, 1, 0),                  # front 3
        ])
        ranked = peel_fronts(rows, tie_key="key")
        by_key = {r["key"]: r["front_rank"] for r in ranked}
        assert by_key == {"k00": 1, "k01": 1, "k02": 2, "k03": 2,
                          "k04": 3}

    def test_select_batch_size_and_determinism(self):
        rng = random.Random(9)
        rows = _prediction_rows([
            (1 + rng.random() * 4, 1 + rng.random() * 4,
             rng.random()) for _ in range(30)
        ])
        chosen = select_batch(rows, 6)
        assert len(chosen) == 6 and chosen == sorted(chosen)
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert select_batch(shuffled, 6) == chosen

    def test_explore_fraction_takes_uncertain(self):
        rows = _prediction_rows([
            (5, 5, 0.0),                # predicted-front corner
            (1, 1, 9.0),                # dominated but most uncertain
            (4, 2, 0.0), (2, 4, 0.0), (3, 3, 0.0),
        ])
        chosen = select_batch(rows, 2, explore_fraction=0.5)
        assert "k01" in chosen          # uncertainty pick
        assert "k00" in chosen          # exploit pick

    def test_pure_exploit_ignores_uncertainty(self):
        rows = _prediction_rows([
            (5, 5, 0.0), (1, 1, 9.0), (4, 4, 0.0),
        ])
        chosen = select_batch(rows, 1, explore_fraction=0.0)
        assert chosen == ["k00"]

    def test_uncovered_filters_measured_plateaus(self):
        rows = _prediction_rows([(2.0, 2.0, 0), (5.0, 1.0, 0)])
        evaluated = [{"speedup": 2.01, "energy_eff": 2.01}]
        kept = uncovered(rows, evaluated)
        assert [r["key"] for r in kept] == ["k01"]
        assert uncovered(rows, []) == rows

    def test_covered_candidates_deprioritized(self):
        rows = _prediction_rows([
            (2.0, 2.0, 0.0),            # covered by evaluated point
            (1.5, 1.5, 0.0),            # covered and dominated
            (4.0, 1.0, 0.0),            # genuine extension
        ])
        evaluated = [{"speedup": 2.0, "energy_eff": 2.0}]
        chosen = select_batch(rows, 1, explore_fraction=0.0,
                              evaluated=evaluated)
        assert chosen == ["k02"]

    def test_batch_larger_than_pool(self):
        rows = _prediction_rows([(1, 1, 0), (2, 2, 0)])
        assert len(select_batch(rows, 10)) == 2
        assert select_batch([], 5) == []


# ---------------------------------------------------------------------------
# The canonical-artifact helper (repro.artifacts satellite)


class TestArtifactsHelper:
    def test_stamp_shape_and_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "deadbeef")
        monkeypatch.setenv("REPRO_X_DATE", "2020-02-02")
        payload = stamp(3, env_var="REPRO_X_DATE")
        assert payload == {"schema": 3, "commit": "deadbeef",
                           "date": "2020-02-02"}

    def test_dumps_is_canonical(self):
        text = dumps_artifact({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text.index('"a"') < text.index('"b"')
        with pytest.raises(ValueError):
            dumps_artifact({"bad": float("nan")})

    def test_canonical_fields_strip_provenance(self):
        payload = {"schema": 1, "commit": "c", "date": "d", "x": 1}
        assert canonical_fields(payload) == {"schema": 1, "x": 1}

    def test_write_and_latest_discovery(self, tmp_path):
        for date in ("2026-01-05", "2026-01-20", "2026-01-11"):
            write_artifact({"schema": 1, "date": date}, "EXPLORE",
                           tmp_path)
        newest = latest_artifact("EXPLORE", tmp_path)
        assert newest.name == "EXPLORE_2026-01-20.json"
        assert latest_artifact("NOPE", tmp_path) is None

    def test_write_creates_missing_directory(self, tmp_path):
        path = write_artifact({"schema": 1, "date": "2026-01-05"},
                              "FIDELITY", tmp_path / "fresh" / "out")
        assert path == tmp_path / "fresh" / "out" \
            / "FIDELITY_2026-01-05.json"
        assert path.is_file()

    def test_filename_uses_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORE_DATE", "1999-09-09")
        assert explore_filename() == "EXPLORE_1999-09-09.json"
        assert artifact_filename("FIDELITY", "2001-01-01") \
            == "FIDELITY_2001-01-01.json"

    def test_explore_and_fidelity_share_the_helper(self):
        from repro.explore import artifact as explore
        from repro.fidelity import artifact as fidelity
        payload = {"b": 2, "a": 1}
        expected = dumps_artifact(payload)
        assert explore.dumps_explore(payload) == expected
        assert fidelity.dumps_fidelity(payload) == expected


# ---------------------------------------------------------------------------
# Cache export (repro cache export satellite)


class TestCacheExport:
    def test_sweep_then_export(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(names=["conv"], core_names=("IO2", "OOO2"),
                  subsets=(("simd",), ()), scale=0.1,
                  max_invocations=2, with_amdahl=False,
                  cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        rows = list(export_records(cache))
        assert rows, "export produced no records"
        for row in rows:
            assert row["benchmark"] == "conv"
            assert row["scale"] == 0.1
            assert row["max_invocations"] == 2
            assert row["core"] in ("IO2", "OOO2")
            assert row["speedup"] > 0
            assert row["energy_eff"] > 0
        assert rows == list(export_records(cache))

    def test_export_skips_corrupt_and_foreign(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(names=["conv"], core_names=("IO2",),
                  subsets=((),), scale=0.1, max_invocations=2,
                  with_amdahl=False, cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        good = len(list(export_records(cache)))
        shard = next(d for d in Path(cache_dir).iterdir()
                     if d.is_dir())
        (shard / "zz-corrupt.json").write_text("{nope")
        (shard / "zz-foreign.json").write_text('{"format": "v99"}')
        assert len(list(export_records(cache))) == good

    def test_entries_without_meta_export_null_fields(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        record = {"suite": "s", "category": "c", "benchmark": "b",
                  "baseline": {"IO2": [100, 50.0, 10]},
                  "oracle": {"IO2|simd": {"cycles": 60,
                                          "energy_pj": 30.0}},
                  "amdahl": {}}
        cache.store("a" * 64, record)
        rows = list(export_records(cache))
        assert len(rows) == 1
        assert rows[0]["benchmark"] is None
        assert rows[0]["speedup"] == round(100 / 60, 9)
        # meta-less rows carry no max_invocations: the surrogate
        # warm-start must skip them rather than guess
        assert training_points_from_records(rows) == []

    def test_training_points_geomean_across_benchmarks(self):
        records = [
            {"core": "OOO2", "subset": "simd", "max_invocations": 2,
             "speedup": 2.0, "energy_eff": 1.0},
            {"core": "OOO2", "subset": "simd", "max_invocations": 2,
             "speedup": 8.0, "energy_eff": 4.0},
        ]
        points = training_points_from_records(records)
        assert len(points) == 1
        point, metrics = points[0]
        assert point.core == "OOO2" and point.subset == ("simd",)
        assert metrics["speedup"] == pytest.approx(4.0)
        assert metrics["energy_eff"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Exact evaluation


class _PerTripleEvaluator(ExactEvaluator):
    """The oracle: ExactEvaluator as it was when it memoized per
    (core, subset, max_invocations) triple, with one two-core
    ``(reference, core)`` sweep of one subset per triple."""

    def metrics(self, point):
        self._triple = (point.core, point.subset, point.max_invocations)
        return super().metrics(point)

    def _records_for(self, max_invocations):
        triple = self._triple
        cached = self._records.get(triple)
        if cached is not None:
            return cached
        core, subset, max_invocations = triple
        core_names = (self.reference_core,) \
            if core == self.reference_core \
            else (self.reference_core, core)
        sweep = run_sweep(
            names=list(self.benchmarks), core_names=core_names,
            subsets=(subset,), scale=self.scale,
            max_invocations=max_invocations, with_amdahl=False)
        self.sweep_calls += 1
        records = {name: sweep.results[name]
                   for name in self.benchmarks}
        self._records[triple] = records
        return records


def _assert_matches_per_triple_oracle(benchmarks, spaces):
    oracle = _PerTripleEvaluator(benchmarks, scale=0.1)
    for space in spaces:
        evaluator = ExactEvaluator(benchmarks, scale=0.1,
                                   cores=space.cores,
                                   subsets=space.subsets,
                                   max_invocations=space.max_invocations)
        for point in space:
            assert evaluator.metrics(point) == oracle.metrics(point), \
                point
        # One sweep covers every depth of the space.
        assert evaluator.sweep_calls == 1
    return oracle


class TestExactEvaluator:
    def test_per_depth_sweep_matches_per_triple_oracle(self):
        oracle = _assert_matches_per_triple_oracle(("conv",), [
            DesignSpace.paper(cores=cores, max_invocations=(2, 4))
            for cores in (DSE_CORES, DEFAULT_CORES)])
        assert oracle.sweep_calls == len(DEFAULT_CORES) * 16 * 2

    def test_reference_core_first_keeps_dp_cgra_cells_exact(self):
        # djpeg1's DP-CGRA energy depends on which core evaluates a
        # region first (docs/modeling.md, "Order dependence"): this
        # space fails if the reference core is not the first core of
        # the sweep.
        _assert_matches_per_triple_oracle(("djpeg1",), [DesignSpace(
            cores=DEFAULT_CORES, subsets=((), ("dp_cgra",)),
            freqs=(2.0,), sizing_levels=(0,), max_invocations=(2,))])

    def test_reference_core_goes_first(self):
        evaluator = ExactEvaluator(("conv",),
                                   cores=("OOO4", "IO2", "OOO2"))
        assert evaluator.cores == ("IO2", "OOO4", "OOO2")

    def test_point_outside_the_space_is_rejected(self):
        evaluator = ExactEvaluator(("conv",), cores=("IO2", "OOO2"),
                                   subsets=((), ("simd",)))
        with pytest.raises(ValueError):
            evaluator.metrics(DesignPoint("OOO4", ("simd",)))
        with pytest.raises(ValueError):
            evaluator.metrics(DesignPoint("OOO2", ("ns_df",)))
        assert evaluator.sweep_calls == 0

    def test_paper_space_shares_the_sweep_cli_cache_entry(
            self, tmp_path):
        # `repro sweep conv` runs exactly this call: the four DSE
        # cores, all 16 subsets, depth 8, no Amdahl schedule.
        cache = str(tmp_path)
        run_sweep(names=["conv"], scale=0.1, with_amdahl=False,
                  cache_dir=cache)
        space = DesignSpace.paper()
        evaluator = ExactEvaluator(("conv",), scale=0.1,
                                   cache_dir=cache, cores=space.cores,
                                   subsets=space.subsets,
                                   max_invocations=space.max_invocations)
        calls = []

        def spy(**kwargs):
            sweeps = run_sweep(**kwargs)
            calls.append(sweeps[8].stats)
            return sweeps

        evaluator_module = sys.modules[ExactEvaluator.__module__]
        original = evaluator_module.run_sweep
        evaluator_module.run_sweep = spy
        try:
            evaluator.evaluate(list(space))
        finally:
            evaluator_module.run_sweep = original
        assert [(s.hits, s.misses) for s in calls] == [(1, 0)]

    def test_second_explore_of_a_space_is_all_cache_hits(self, tmp_path):
        # The first explore sweeps every depth in one evaluation and
        # stores one cache entry per depth; a second explore of the
        # same space finds them all.
        cache = str(tmp_path)
        space = DesignSpace.paper(max_invocations=(2, 4, 8, 16))
        calls = []

        def spy(**kwargs):
            sweeps = run_sweep(**kwargs)
            calls.append((kwargs["max_invocations"],
                          sweeps[kwargs["max_invocations"][0]].stats))
            return sweeps

        evaluator_module = sys.modules[ExactEvaluator.__module__]
        original = evaluator_module.run_sweep
        evaluator_module.run_sweep = spy
        try:
            for _ in range(2):
                evaluator = ExactEvaluator(
                    ("conv",), scale=0.1, cache_dir=cache,
                    cores=space.cores, subsets=space.subsets,
                    max_invocations=space.max_invocations)
                evaluator.evaluate(list(space))
        finally:
            evaluator_module.run_sweep = original
        assert [(sorted(depths), stats.hits, stats.misses)
                for depths, stats in calls] \
            == [([2, 4, 8, 16], 0, 1), ([2, 4, 8, 16], 1, 0)]
        # One entry per depth, each under the key a sweep at that
        # depth alone uses.
        store = SweepCache(cache)
        depths = sorted(payload["meta"]["max_invocations"]
                        for _, payload in store.iter_entries()
                        if "meta" in payload)
        assert depths == [2, 4, 8, 16]
        for depth in space.max_invocations:
            assert cache_key("conv", 0.1, evaluator.cores, space.subsets,
                             depth, False) in store


# ---------------------------------------------------------------------------
# The exploration loop and the EXPLORE artifact


class TestExploreLoop:
    def test_payload_shape(self, explore_payload):
        payload = explore_payload
        assert payload["schema"] == 1
        assert payload["budget"]["spent"] == EXPLORE_KW["budget"]
        assert payload["budget"]["space_size"] == 64
        assert len(payload["points"]) == EXPLORE_KW["budget"]
        assert payload["points"] == sorted(
            payload["points"], key=lambda r: r["key"])
        assert payload["frontier"], "no frontier discovered"
        speedups = [r["speedup"] for r in payload["frontier"]]
        assert speedups == sorted(speedups)
        assert payload["surrogate"]["features"] == list(FEATURE_NAMES)
        assert payload["history"], "no acquisition rounds recorded"
        for row in payload["history"]:
            assert row["surrogate_error"] >= 0.0

    def test_config_arbitration_is_null(self, explore_payload):
        """Checked-in EXPLORE artifacts and perfbench's frozen
        reference carry this key, always ``null``."""
        config = explore_payload["config"]
        assert "arbitration" in config
        assert config["arbitration"] is None

    def test_gate_passes_fresh_run(self, explore_payload):
        assert check_explore(explore_payload,
                             max_exact_fraction=0.25) == []

    def test_seed_changes_payload(self, explore_cache, paper_space):
        other = run_explore(space=paper_space,
                            cache_dir=explore_cache,
                            **dict(EXPLORE_KW, seed=1))
        base = run_explore(space=paper_space,
                           cache_dir=explore_cache, **EXPLORE_KW)
        assert {r["key"] for r in other["points"]} \
            != {r["key"] for r in base["points"]}

    def test_worker_count_never_changes_bytes(self, explore_cache,
                                              paper_space,
                                              explore_payload):
        parallel = run_explore(space=paper_space, workers=4,
                               cache_dir=explore_cache, **EXPLORE_KW)
        assert dumps_explore(
            strip_provenance(parallel)) == dumps_explore(
                strip_provenance(explore_payload))

    def test_repeat_run_is_byte_identical(self, explore_cache,
                                          paper_space,
                                          explore_payload):
        again = run_explore(space=paper_space,
                            cache_dir=explore_cache, **EXPLORE_KW)
        assert dumps_explore(
            strip_provenance(again)) == dumps_explore(
                strip_provenance(explore_payload))

    def test_budget_covering_space_is_exhaustive(self, explore_cache):
        space = DesignSpace.paper(cores=("IO2", "OOO2"),
                                  max_invocations=(2,))
        payload = run_explore(space=space, cache_dir=explore_cache,
                              **dict(EXPLORE_KW, budget=999))
        assert payload["budget"]["spent"] == space.size
        assert len(payload["points"]) == space.size
        assert payload["history"] == []

    def test_warm_start_records_inform_but_never_join(
            self, explore_cache, paper_space):
        records = [
            {"core": "OOO6", "subset": "simd", "max_invocations": 2,
             "speedup": 11.0, "energy_eff": 2.0},
        ]
        payload = run_explore(space=paper_space,
                              cache_dir=explore_cache,
                              train_records=records, **EXPLORE_KW)
        assert payload["budget"]["spent"] == EXPLORE_KW["budget"]
        for row in payload["points"]:
            assert row["source"] == "exact"

    def test_rank_span_and_scored_counter(self, explore_cache,
                                          paper_space):
        from repro.obs import (
            disable, enable, get_recorder, get_registry,
        )
        name = "repro_explore_candidates_scored_total"
        before = get_registry().value(name)
        enable(reset=True)
        try:
            run_explore(space=paper_space, cache_dir=explore_cache,
                        **EXPLORE_KW)
            records = list(get_recorder().records)
        finally:
            disable()
            get_recorder().clear()
        ranks = [r["args"] for r in records
                 if r["name"] == "explore.rank"]
        assert ranks
        assert all(0 < a["scored"] <= a["candidates"] for a in ranks)
        assert get_registry().value(name) - before \
            == sum(a["scored"] for a in ranks)
        evaluates = [r["args"] for r in records
                     if r["name"] == "explore.evaluate"]
        # One sweep, listing every depth it evaluates.
        assert evaluates == [
            {"max_invocations": [2], "cores": 4, "subsets": 16}]

    def test_unknown_benchmark_raises(self, paper_space):
        with pytest.raises(Exception):
            run_explore(space=paper_space, benchmarks=("nope",),
                        budget=2, use_cache=False)


def strip_provenance(payload):
    return {k: v for k, v in payload.items()
            if k not in ("commit", "date")}


class TestExploreArtifact:
    def test_write_load_latest_roundtrip(self, explore_payload,
                                         tmp_path):
        path = write_explore(dict(explore_payload,
                                  date="2026-03-01"), tmp_path)
        assert path.name == "EXPLORE_2026-03-01.json"
        assert load_explore(path) == dict(explore_payload,
                                          date="2026-03-01")
        assert latest_explore(tmp_path) == path

    def test_dump_is_strict_sorted_json(self, explore_payload):
        text = dumps_explore(explore_payload)
        assert text.endswith("\n")
        assert json.loads(text) == explore_payload

    def test_frontier_recall_math(self):
        payload = {"frontier": [
            {"key": "a", "speedup": 2.0, "energy_eff": 2.0},
        ]}
        true_frontier = [
            {"key": "a", "speedup": 2.0, "energy_eff": 2.0},
            {"key": "b", "speedup": 2.08, "energy_eff": 1.0},
            {"key": "c", "speedup": 4.0, "energy_eff": 1.0},
        ]
        # b is within the 5% tolerance of a on both axes; c is not
        assert frontier_recall(payload, true_frontier) \
            == pytest.approx(2 / 3)
        assert frontier_recall(payload, true_frontier,
                               tolerance=0.0) \
            == pytest.approx(1 / 3)
        assert frontier_recall(payload, []) == 1.0

    def test_gate_catches_structural_lies(self, explore_payload):
        bad = dict(explore_payload,
                   budget=dict(explore_payload["budget"], spent=1))
        assert any("exact points" in f for f in check_explore(bad))
        bad = dict(explore_payload, frontier=[
            {"key": "never-evaluated", "speedup": 1,
             "energy_eff": 1, "frontier_rank": 1}])
        assert any("never evaluated" in f for f in check_explore(bad))
        bad = dict(explore_payload, schema=99)
        assert any("schema" in f for f in check_explore(bad))

    def test_gate_enforces_exact_fraction(self, explore_payload):
        failures = check_explore(explore_payload,
                                 max_exact_fraction=0.01)
        assert any("exact_fraction" in f for f in failures)

    def test_gate_enforces_recall(self, explore_payload):
        impossible = [{"key": "x", "speedup": 1e9,
                       "energy_eff": 1e9}]
        failures = check_explore(explore_payload,
                                 true_frontier=impossible)
        assert any("recall" in f for f in failures)


# ---------------------------------------------------------------------------
# numpy-absent parity


NUMPY_BLOCK = """\
import sys
class _Block:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for parity test")
sys.meta_path.insert(0, _Block())
"""

PARITY_SCRIPT = """\
%s
import sys
from repro.explore import run_explore
from repro.explore.artifact import canonical_fields, dumps_explore
from repro.explore.space import DesignSpace
payload = run_explore(space=DesignSpace.paper(max_invocations=(2,)),
                      benchmarks=("conv",), budget=6, seed=0,
                      scale=0.1, cache_dir=sys.argv[1])
%s
sys.stdout.write(dumps_explore(canonical_fields(payload)))
"""


def test_numpy_absent_parity(explore_cache):
    pytest.importorskip("numpy")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1]
                            / "src") + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else "")
    outputs = []
    blocked_check = 'assert "numpy" not in sys.modules'
    for block, check in ((NUMPY_BLOCK, blocked_check), ("", "")):
        result = subprocess.run(
            [sys.executable, "-c",
             PARITY_SCRIPT % (block, check), explore_cache],
            capture_output=True, text=True, env=env, timeout=600)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 200


def test_explore_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1]
                            / "src")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.explore\n"
         "assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
