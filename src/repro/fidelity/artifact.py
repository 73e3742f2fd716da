"""The canonical ``FIDELITY_<date>.json`` artifact and its gate.

Follows the dated-artifact conventions of :mod:`repro.artifacts`: one
canonical, byte-stable JSON file per sweep date, checked into the repo
root; ``latest_fidelity`` discovers the newest baseline by
date-in-name; :func:`check_fidelity` is the regression gate CI runs
against it.  Every number in a FIDELITY payload is machine-independent
(modeled cycles, not wall clock), so the whole payload minus
provenance (``commit``/``date``) is reproducible —
:func:`canonical_fields` strips exactly those two fields.

Schema (``"schema": 1``)::

    commit    git revision (override: $REPRO_COMMIT)
    date      YYYY-MM-DD (override: $REPRO_FIDELITY_DATE)
    config    {benchmarks, cores, bsas, scale, max_invocations}
    classes   benchmark -> behavior class (regular/semiregular/...)
    points    {"core": {bench: {core: {ipc, ipe}}},
               "accel": {bench: {bsa: {base, speedup, energy}}}}
              each leaf {predicted, reference, error}
    summary   {"engine_vs_cycle": {ipc/ipe: {overall, by_class}},
               "fast_vs_detailed": {bsa: {speedup/energy: ...}}}
              each stat block {count, mean, p50, p95, max, infinite}
    bounds    {bsa: {class: worst fast-vs-detailed error}} — the
              ModelArbiter's input

Infinite errors are serialized as the string ``"inf"`` (never bare
JSON ``Infinity``, which is not standard JSON).
"""

import json
import math

from repro.artifacts import (
    artifact_filename, canonical_fields as _strip_provenance,
    dumps_artifact, latest_artifact, stamp, write_artifact,
)

#: Bump when the payload shape changes incompatibly.
SCHEMA_VERSION = 1

#: Hard acceptance ceilings on *mean* error, independent of any
#: baseline: the timing engine must track the cycle simulator this
#: closely, and every BSA fast model must track its detailed mode this
#: closely, or the sweep fails outright (paper Table 1 reports
#: single-digit-percent means; these are deliberately looser so a
#: legitimate model change does not need a synchronized gate bump).
ENGINE_MEAN_CEILING = 0.15
ACCEL_MEAN_CEILING = 0.30


def make_payload(config, classes, points, summary, bounds):
    """Assemble the full payload around the sweep's computed parts."""
    payload = stamp(SCHEMA_VERSION, env_var="REPRO_FIDELITY_DATE")
    payload.update({
        "config": config,
        "classes": classes,
        "points": points,
        "summary": summary,
        "bounds": bounds,
    })
    return payload


# ---------------------------------------------------------------------------
# Canonical serialization and the FIDELITY_<date>.json convention.

def dumps_fidelity(payload):
    """Canonical serialization (:func:`repro.artifacts.dumps_artifact`)."""
    return dumps_artifact(payload)


def canonical_fields(payload):
    """The reproducible subset: everything except provenance."""
    return _strip_provenance(payload)


def fidelity_filename(when=None):
    return artifact_filename("FIDELITY", when,
                             env_var="REPRO_FIDELITY_DATE")


def write_fidelity(payload, directory="."):
    """Write the canonical FIDELITY_<date>.json; returns its path."""
    return write_artifact(payload, "FIDELITY", directory,
                          env_var="REPRO_FIDELITY_DATE")


def load_fidelity(path):
    with open(path) as handle:
        return json.load(handle)


def latest_fidelity(directory=None):
    """Newest FIDELITY_*.json by date-in-name, or ``None``.

    Defaults to the repo root, where sweep artifacts are checked in.
    """
    return latest_artifact("FIDELITY", directory)


# ---------------------------------------------------------------------------
# Regression gate.

def _stat(block, key):
    """Read one stat, mapping the ``"inf"`` sentinel back to a float."""
    value = block.get(key, 0.0)
    if value == "inf":
        return math.inf
    return float(value)


def _walk_stats(summary, prefix=""):
    """Yield (dotted path, stat block) for every leaf distribution.

    Descends nested dicts until it reaches a ``{overall, by_class}``
    group — ``engine_vs_cycle`` groups sit one level shallower than
    the per-BSA ``fast_vs_detailed`` groups.
    """
    for key, value in sorted(summary.items()):
        path = f"{prefix}{key}"
        if not isinstance(value, dict):
            continue
        if "overall" in value:
            yield f"{path}.overall", value["overall"]
            for behavior, block in sorted(
                    value.get("by_class", {}).items()):
                yield f"{path}.{behavior}", block
        else:
            yield from _walk_stats(value, prefix=f"{path}.")


def check_fidelity(current, baseline=None, tolerance=0.25,
                   slack=0.005):
    """Gate *current* against the ceilings and *baseline*; return
    failure strings (empty list = pass).

    Two layers:

    - **absolute**: overall mean error per tier must stay under the
      hard ceilings (:data:`ENGINE_MEAN_CEILING`,
      :data:`ACCEL_MEAN_CEILING`), and no distribution may contain
      infinite errors.
    - **relative** (when *baseline* given): each summary mean/p95 may
      exceed its baseline by at most ``baseline * tolerance + slack``
      (the absolute *slack* keeps near-zero baselines from gating on
      float dust).  Configs must match exactly — error distributions
      from different sweeps are not comparable.
    """
    failures = []
    if current.get("schema") != SCHEMA_VERSION:
        failures.append(
            f"schema mismatch: current={current.get('schema')} "
            f"expected={SCHEMA_VERSION}")
        return failures

    summary = current.get("summary", {})
    for path, block in _walk_stats(summary):
        if block.get("infinite"):
            failures.append(
                f"{path}: {block['infinite']} infinite error point(s)")
    for metric in ("ipc", "ipe"):
        mean = _stat(summary.get("engine_vs_cycle", {})
                     .get(metric, {}).get("overall", {}), "mean")
        if mean > ENGINE_MEAN_CEILING:
            failures.append(
                f"engine_vs_cycle.{metric} mean error {mean:.3f} "
                f"exceeds ceiling {ENGINE_MEAN_CEILING}")
    for bsa, groups in sorted(summary.get("fast_vs_detailed",
                                          {}).items()):
        for metric in ("speedup", "energy"):
            mean = _stat(groups.get(metric, {}).get("overall", {}),
                         "mean")
            if mean > ACCEL_MEAN_CEILING:
                failures.append(
                    f"fast_vs_detailed.{bsa}.{metric} mean error "
                    f"{mean:.3f} exceeds ceiling {ACCEL_MEAN_CEILING}")

    if baseline is None:
        return failures
    if baseline.get("schema") != current.get("schema"):
        failures.append(
            f"baseline schema mismatch: baseline="
            f"{baseline.get('schema')} current={current.get('schema')}")
        return failures
    if baseline.get("config") != current.get("config"):
        failures.append(
            "config mismatch vs baseline (error distributions from "
            "different sweeps are not comparable)")
        return failures

    base_stats = dict(_walk_stats(baseline.get("summary", {})))
    for path, block in _walk_stats(summary):
        base_block = base_stats.get(path)
        if base_block is None:
            continue
        for key in ("mean", "p95"):
            base = _stat(base_block, key)
            cur = _stat(block, key)
            if math.isinf(base):
                continue    # already flagged via the infinite check
            if cur > base * (1.0 + tolerance) + slack:
                failures.append(
                    f"{path}.{key} regressed: {cur:.4f} vs baseline "
                    f"{base:.4f} (tolerance {tolerance:.0%} "
                    f"+ {slack})")
    return failures


def format_fidelity(payload):
    """Human-readable one-screen summary (stderr of
    ``repro validate --fidelity``)."""
    config = payload["config"]
    lines = [
        f"fidelity sweep: {len(config['benchmarks'])} benchmarks x "
        f"{len(config['cores'])} cores x {len(config['bsas'])} BSAs "
        f"(scale {config['scale']})",
    ]
    engine = payload["summary"]["engine_vs_cycle"]
    for metric in ("ipc", "ipe"):
        block = engine[metric]["overall"]
        lines.append(
            f"  engine vs cycle {metric}: mean {block['mean']} "
            f"p95 {block['p95']} max {block['max']} "
            f"({block['count']} points)")
    for bsa, groups in sorted(
            payload["summary"]["fast_vs_detailed"].items()):
        parts = []
        for metric in ("speedup", "energy"):
            block = groups[metric]["overall"]
            parts.append(f"{metric} mean {block['mean']} "
                         f"max {block['max']}")
        lines.append(f"  {bsa:<8} fast vs detailed: "
                     + ", ".join(parts))
    lines.append("  bounds (worst error per BSA x class):")
    for bsa, by_class in sorted(payload["bounds"].items()):
        pairs = ", ".join(f"{behavior}={bound}"
                          for behavior, bound
                          in sorted(by_class.items()))
        lines.append(f"    {bsa:<8} {pairs}")
    return "\n".join(lines)
