"""The active-learning exploration loop (``repro explore``).

Exact TDG evaluation of a million-point space is off the table; the
loop spends a small exact-evaluation budget where the surrogate says
it matters:

1. **seed** — exactly evaluate a deterministic uniform sample of the
   space (``init`` points);
2. **fit** — train the bootstrap ridge ensemble
   (:mod:`repro.explore.surrogate`) on everything evaluated so far
   (plus optional warm-start records exported from the sweep cache);
3. **rank** — predict (speedup, energy efficiency, uncertainty) for a
   candidate pool (the whole space when it is small, a seeded sample
   when it is not) and peel predicted Pareto fronts;
4. **acquire** — pick the next batch: predicted-front points first,
   an uncertainty tail for exploration (:mod:`repro.explore.acquire`);
5. **evaluate** — exact metrics through the sweep engine + cache
   (:mod:`repro.explore.evaluate`), recording the surrogate's
   out-of-sample error on the batch *before* the truth arrives;
6. repeat from 2 until the budget is spent, then report the Pareto
   frontier of everything exactly evaluated.

Every stochastic choice derives from integer seeds (`seed`, round
index); every tie breaks on canonical point keys; every reduction is
:func:`math.fsum`-based.  The resulting EXPLORE payload is therefore
byte-identical across runs, worker counts, and numpy presence — the
determinism contract the artifact tests pin down.
"""

import math

from repro.dse.report import pareto_frontier
from repro.dse.sweep import key_to_subset
from repro.explore import acquire
from repro.explore.artifact import SCHEMA_VERSION
from repro.explore.evaluate import ExactEvaluator
from repro.explore.space import (
    DesignPoint, DesignSpace, FEATURE_NAMES, point_features,
)
from repro.explore.surrogate import (
    DEFAULT_L2, DEFAULT_MEMBERS, SurrogateEnsemble,
)
from repro.artifacts import stamp
from repro.obs import counter, span

#: Cap on the per-round surrogate-ranked candidate pool.
DEFAULT_CANDIDATE_POOL = 2048

#: Candidates per batch that the surrogate scores.  Scores do not
#: depend on how the pool is cut; a bounded batch bounds the memory
#: its per-row columns take.
SCORE_CHUNK = 128

#: Weight of the coverage (distance-to-training-set) term in the
#: explore-tail acquisition uncertainty, relative to the
#: bootstrap-ensemble spread.
NOVELTY_WEIGHT = 1.5

#: Round the surrogate-error statistic like every artifact metric.
_ERROR_DIGITS = 9

_TARGETS = ("speedup", "energy_eff")


def default_init(budget):
    """Seed-sample size: three eighths of the budget, at least 4.

    Tuned on the 64-point paper space: smaller seeds leave the first
    surrogate too wrong to rank fronts, larger ones starve the
    acquisition rounds (budget 16 -> seed 6, acquire 10).
    """
    return max(4, (3 * budget) // 8)


def default_batch(budget):
    """Per-round batch size: a fifth of the budget, at least 2."""
    return max(2, budget // 5)


def training_points_from_records(records):
    """Warm-start (point, metrics) pairs from ``repro cache export``
    JSONL records.

    Exported records are one row per (benchmark, core, subset) cell;
    rows sharing a (core, subset, max_invocations) design point are
    geomeaned across benchmarks into one training target.  Rows
    missing the fields (old cache entries export with ``null`` meta)
    are skipped.  Cache records are always at nominal frequency and
    sizing — exactly what their sweep evaluated.
    """
    groups = {}
    for record in records:
        if record.get("speedup") is None \
                or record.get("max_invocations") is None:
            continue
        triple = (record["core"], record["subset"],
                  record["max_invocations"])
        groups.setdefault(triple, []).append(record)
    out = []
    for (core, subset_key, max_invocations), rows \
            in sorted(groups.items()):
        point = DesignPoint(core, key_to_subset(subset_key),
                            max_invocations=max_invocations)
        metrics = {}
        for target in _TARGETS:
            values = [row[target] for row in rows
                      if row.get(target, 0) > 0]
            metrics[target] = math.exp(
                math.fsum(math.log(v) for v in values)
                / len(values)) if values else 0.0
        out.append((point, metrics))
    return out


def _fit(evaluated, warm_points, seed, n_models, l2):
    rows, targets = [], {name: [] for name in _TARGETS}
    for key in sorted(evaluated):
        entry = evaluated[key]
        rows.append(point_features(entry["point"]))
        for name in _TARGETS:
            targets[name].append(entry[name])
    for point, metrics in warm_points:
        if point.key() in evaluated:
            continue
        rows.append(point_features(point))
        for name in _TARGETS:
            targets[name].append(metrics[name])
    surrogate = SurrogateEnsemble(target_names=_TARGETS,
                                  n_members=n_models, l2=l2,
                                  seed=seed)
    with span("explore.fit", rows=len(rows)):
        surrogate.fit(rows, targets)
    return surrogate


def _candidate_rows(surrogate, space, evaluated, pool, seed,
                    round_index):
    if space.size <= pool:
        candidates = list(space)
    else:
        candidates = space.sample(
            pool, seed=seed * 1_000_003 + round_index)
    rows = []
    with span("explore.rank", candidates=len(candidates)) as current:
        for start in range(0, len(candidates), SCORE_CHUNK):
            chunk = [(point.key(), point)
                     for point in candidates[start:start + SCORE_CHUNK]]
            chunk = [(key, point) for key, point in chunk
                     if key not in evaluated]
            features = [point_features(point) for _, point in chunk]
            for (key, point), predicted, novelty in zip(
                    chunk, surrogate.predict(features),
                    surrogate.novelty(features)):
                row = {
                    "key": key,
                    "point": point,
                    "uncertainty": math.fsum(
                        [predicted[name][1] for name in _TARGETS]
                        + [NOVELTY_WEIGHT * novelty]),
                }
                for name in _TARGETS:
                    row[name] = predicted[name][0]
                rows.append(row)
        current.set(scored=len(rows))
    counter("repro_explore_candidates_scored_total").inc(len(rows))
    return rows


def run_explore(space=None, benchmarks=("conv",), budget=16, seed=0,
                batch_size=None, init=None, scale=1.0, workers=1,
                cache_dir=None, use_cache=None,
                candidate_pool=DEFAULT_CANDIDATE_POOL,
                n_models=DEFAULT_MEMBERS, l2=DEFAULT_L2,
                explore_fraction=acquire.DEFAULT_EXPLORE_FRACTION,
                train_records=None, progress=None):
    """Run the surrogate-assisted exploration; returns the EXPLORE
    payload dict (see :mod:`repro.explore.artifact` for the schema).

    *workers* and cache state parallelize/accelerate the
    exact evaluations without entering the payload — the canonical
    bytes depend only on (space, benchmarks, scale, seed, budget and
    the loop hyper-parameters).  *train_records* warm-starts the
    surrogate from ``repro cache export`` rows; warm points inform
    the model but never count as explored or join the frontier.
    *progress* is called as ``progress(spent, budget)`` after every
    exact evaluation.
    """
    if space is None:
        space = DesignSpace()
    budget = max(1, min(int(budget), space.size))
    if batch_size is None:
        batch_size = default_batch(budget)
    if init is None:
        init = default_init(budget)
    batch_size = max(1, int(batch_size))
    init = max(1, min(int(init), budget))

    evaluator = ExactEvaluator(
        benchmarks, scale=scale, workers=workers,
        cache_dir=cache_dir, use_cache=use_cache, cores=space.cores,
        subsets=space.subsets, max_invocations=space.max_invocations)
    warm_points = training_points_from_records(train_records or [])

    evaluated = {}      # key -> {point, speedup, energy_eff, round}
    history = []
    spent = 0

    def evaluate_batch(points, round_index):
        nonlocal spent
        metrics = evaluator.evaluate(points)
        for point in points:
            key = point.key()
            evaluated[key] = {
                "point": point,
                "round": round_index,
                **metrics[key],
            }
            spent += 1
            if progress is not None:
                progress(spent, budget)
        return metrics

    with span("explore.run", budget=budget, space=space.size):
        if budget >= space.size:
            # Budget covers the space: exhaustive, no surrogate.
            evaluate_batch(list(space), 0)
            surrogate_error = None
        else:
            seed_points = space.sample_stratified(init, seed=seed)
            evaluate_batch(seed_points, 0)
            surrogate_error = None
            round_index = 0
            while spent < budget:
                round_index += 1
                counter("repro_explore_rounds_total").inc()
                surrogate = _fit(evaluated, warm_points, seed,
                                 n_models, l2)
                rows = _candidate_rows(
                    surrogate, space, evaluated, candidate_pool,
                    seed, round_index)
                if not rows:
                    break
                this_batch = min(batch_size, budget - spent)
                by_key = {row["key"]: row for row in rows}
                with span("explore.select", candidates=len(rows)):
                    batch_keys = acquire.select_batch(
                        rows, this_batch,
                        explore_fraction=explore_fraction,
                        evaluated=list(evaluated.values()))
                predictions = {key: by_key[key] for key in batch_keys}
                batch_points = [by_key[key]["point"]
                                for key in batch_keys]
                metrics = evaluate_batch(batch_points, round_index)
                errors = []
                for key in batch_keys:
                    for name in _TARGETS:
                        actual = max(metrics[key][name], 1e-9)
                        predicted = max(predictions[key][name], 1e-9)
                        errors.append(abs(math.log(predicted)
                                          - math.log(actual)))
                surrogate_error = round(
                    math.fsum(errors) / len(errors), _ERROR_DIGITS)
                frontier_rows = pareto_frontier(
                    [dict(entry, key=key) for key, entry
                     in evaluated.items()],
                    tie_key="key")
                history.append({
                    "round": round_index,
                    "spent": spent,
                    "batch": list(batch_keys),
                    "surrogate_error": surrogate_error,
                    "frontier_size": len(frontier_rows),
                })

    point_rows = []
    for key in sorted(evaluated):
        entry = evaluated[key]
        point_rows.append({
            **entry["point"].to_json(),
            "speedup": entry["speedup"],
            "energy_eff": entry["energy_eff"],
            "round": entry["round"],
            "source": "exact",
        })
    frontier = [
        {"key": row["key"], "speedup": row["speedup"],
         "energy_eff": row["energy_eff"], "frontier_rank": rank}
        for rank, row in enumerate(
            pareto_frontier(point_rows, tie_key="key"), start=1)
    ]

    payload = stamp(SCHEMA_VERSION, env_var="REPRO_EXPLORE_DATE")
    payload.update({
        "config": {
            "benchmarks": sorted(benchmarks),
            "scale": scale,
            "seed": seed,
            "budget": budget,
            "batch_size": batch_size,
            "init": init,
            "candidate_pool": candidate_pool,
            "n_models": n_models,
            "l2": l2,
            "explore_fraction": explore_fraction,
            # Always null; kept so the payload's key set is unchanged
            # (see repro.explore.artifact).
            "arbitration": None,
            "space": space.to_json(),
        },
        "points": point_rows,
        "frontier": frontier,
        "history": history,
        "surrogate": {
            "features": list(FEATURE_NAMES),
            "error": surrogate_error,
        },
        "budget": {
            "total": budget,
            "spent": spent,
            "space_size": space.size,
            "exact_fraction": round(spent / space.size,
                                    _ERROR_DIGITS),
        },
    })
    return payload
