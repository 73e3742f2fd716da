"""The canonical ``EXPLORE_<date>.json`` artifact and its gate.

Second member of the dated-artifact family (see
:mod:`repro.artifacts`): FIDELITY tracks model error, EXPLORE tracks what the surrogate-assisted search found —
the discovered Pareto frontier, how well the surrogate predicted the
points it chose, and how much exact-evaluation budget that cost.
Every number is modeled (machine-independent), so like FIDELITY the
whole payload minus ``commit``/``date`` is byte-reproducible: same
space, benchmarks, seed and budget give the same bytes at any worker
count, with or without numpy.

Schema (``"schema": 1``)::

    commit    git revision (override: $REPRO_COMMIT)
    date      YYYY-MM-DD (override: $REPRO_EXPLORE_DATE)
    config    {benchmarks, scale, seed, budget, batch_size, init,
               candidate_pool, n_models, l2, explore_fraction,
               arbitration, space}  — note: NO worker count; workers
              must not affect the bytes.  ``arbitration`` is always
              null: it named a model-arbitration spec that no longer
              exists, and stays so that checked-in artifacts and
              references that compare key sets exactly still match
    points    every exactly-evaluated design point, sorted by key:
              {key, core, subset, freq_ghz, sizing, max_invocations,
               speedup, energy_eff, round, source}
    frontier  the non-dominated subset, ascending speedup, each row
              with its frontier_rank
    history   one row per loop round: {round, spent, batch,
               surrogate_error, frontier_size}
    surrogate {features, error}  — final out-of-sample error
    budget    {total, spent, space_size, exact_fraction}
"""

import math

from repro.artifacts import (
    artifact_filename, canonical_fields as _strip_provenance,
    dumps_artifact, load_artifact, latest_artifact, write_artifact,
)

#: Bump when the payload shape changes incompatibly.
SCHEMA_VERSION = 1


def dumps_explore(payload):
    """Canonical serialization (:func:`repro.artifacts.dumps_artifact`)."""
    return dumps_artifact(payload)


def canonical_fields(payload):
    """The reproducible subset: everything except provenance."""
    return _strip_provenance(payload)


def explore_filename(when=None):
    return artifact_filename("EXPLORE", when,
                             env_var="REPRO_EXPLORE_DATE")


def write_explore(payload, directory="."):
    """Write the canonical EXPLORE_<date>.json; returns its path."""
    return write_artifact(payload, "EXPLORE", directory,
                          env_var="REPRO_EXPLORE_DATE")


def load_explore(path):
    return load_artifact(path)


def latest_explore(directory=None):
    """Newest EXPLORE_*.json by date-in-name, or ``None``.

    Defaults to the repo root, where sweep artifacts are checked in.
    """
    return latest_artifact("EXPLORE", directory)


# ---------------------------------------------------------------------------
# Acceptance gate.

#: Default epsilon for frontier recall: designs within 5% on both
#: objectives are interchangeable operating points (the paper-space
#: frontier contains clusters tighter than the TDG model's own
#: fidelity bounds).
DEFAULT_RECALL_TOLERANCE = 0.05


def frontier_recall(payload, true_frontier,
                    tolerance=DEFAULT_RECALL_TOLERANCE):
    """Epsilon-dominance recall of the discovered frontier.

    *true_frontier* is the exhaustively-computed frontier as rows with
    ``key``/``speedup``/``energy_eff``.  A true point counts as
    recovered when some discovered-frontier point matches or beats it
    on **both** objectives within multiplicative *tolerance* — the
    standard epsilon-Pareto recovery criterion: finding a design
    within epsilon of a frontier point recovers that region of the
    frontier.  ``tolerance=0`` degenerates to exact membership.
    """
    true_rows = list(true_frontier)
    if not true_rows:
        return 1.0
    found = payload.get("frontier", [])
    scale = 1.0 + tolerance
    recovered = 0
    for target in true_rows:
        for row in found:
            if row["speedup"] * scale >= target["speedup"] and \
                    row["energy_eff"] * scale >= target["energy_eff"]:
                recovered += 1
                break
    return recovered / len(true_rows)


def check_explore(payload, true_frontier=None, min_recall=0.9,
                  tolerance=DEFAULT_RECALL_TOLERANCE,
                  max_exact_fraction=None):
    """Gate an EXPLORE payload; returns failure strings (empty = pass).

    Structural checks always run (schema, budget accounting, frontier
    consistency).  With *true_frontier* (exhaustive frontier rows —
    only computable when the space is small enough to evaluate
    exhaustively, e.g. the 64-point paper space in CI),
    :func:`frontier_recall` at *tolerance* must reach *min_recall*;
    with *max_exact_fraction*, the exact-evaluation spend must stay
    within that fraction of the space.
    """
    failures = []
    if payload.get("schema") != SCHEMA_VERSION:
        failures.append(
            f"schema mismatch: got {payload.get('schema')} "
            f"expected {SCHEMA_VERSION}")
        return failures

    budget = payload.get("budget", {})
    points = payload.get("points", [])
    exact = [row for row in points if row.get("source") == "exact"]
    if budget.get("spent") != len(exact):
        failures.append(
            f"budget.spent={budget.get('spent')} but payload lists "
            f"{len(exact)} exact points")
    if budget.get("total") is not None \
            and budget.get("spent", 0) > budget["total"]:
        failures.append(
            f"overspent: {budget.get('spent')} exact evals for a "
            f"budget of {budget['total']}")

    point_keys = {row["key"] for row in points}
    for row in payload.get("frontier", []):
        if row["key"] not in point_keys:
            failures.append(
                f"frontier point {row['key']} was never evaluated")

    if max_exact_fraction is not None:
        fraction = budget.get("exact_fraction")
        if fraction is None or math.isnan(float(fraction)):
            failures.append("budget.exact_fraction missing")
        elif fraction > max_exact_fraction:
            failures.append(
                f"exact_fraction {fraction:.4f} exceeds the "
                f"{max_exact_fraction:.4f} ceiling")

    if true_frontier is not None:
        recall = frontier_recall(payload, true_frontier,
                                 tolerance=tolerance)
        if recall < min_recall:
            found = payload.get("frontier", [])
            scale = 1.0 + tolerance
            missed = sorted(
                target["key"] for target in true_frontier
                if not any(
                    row["speedup"] * scale >= target["speedup"]
                    and row["energy_eff"] * scale
                    >= target["energy_eff"]
                    for row in found))
            failures.append(
                f"frontier recall {recall:.3f} below {min_recall} "
                f"at tolerance {tolerance} "
                f"(missed: {', '.join(missed)})")
    return failures


def format_explore(payload):
    """Human-readable one-screen summary (stderr of ``repro explore``)."""
    config = payload["config"]
    budget = payload["budget"]
    lines = [
        f"explored {config['space']['size']} -point space "
        f"({len(config['benchmarks'])} benchmarks, scale "
        f"{config['scale']}, seed {config['seed']})",
        f"  budget: {budget['spent']}/{budget['total']} exact evals "
        f"({100.0 * budget['exact_fraction']:.2f}% of the space)",
        f"  frontier: {len(payload['frontier'])} non-dominated points",
        f"  surrogate out-of-sample error (mean |log pred/actual|): "
        f"{payload['surrogate']['error']}",
    ]
    for row in payload["frontier"]:
        lines.append(
            f"    #{row['frontier_rank']:<2} {row['key']:<44} "
            f"speedup {row['speedup']:.3f}  "
            f"energy-eff {row['energy_eff']:.3f}")
    return "\n".join(lines)
