"""Shared conventions for canonical repo-root artifacts.

The repo tracks its own health as a series of dated, checked-in JSON
artifacts: ``FIDELITY_<date>.json`` (model-error trajectory,
:mod:`repro.fidelity.artifact`) and ``EXPLORE_<date>.json``
(design-space exploration, :mod:`repro.explore.artifact`).  Both
follow one convention, implemented here exactly once:

- **stamping** — every payload carries ``schema`` (int), ``commit``
  (``$REPRO_COMMIT`` override, else ``git rev-parse HEAD``, else
  ``"unknown"``) and ``date`` (``YYYY-MM-DD``, overridable through a
  per-artifact environment variable so CI runs are reproducible).
- **canonical serialization** — sorted keys, 2-space indent, a single
  trailing newline, and ``allow_nan=False`` (a NaN in an artifact is a
  bug, not a value; infinities must be encoded as sentinels by the
  producer).
- **discovery** — ``<PREFIX>_<date>.json`` files sort by name, so the
  newest baseline is simply the last glob match
  (:func:`latest_artifact`).
- **provenance stripping** — :func:`canonical_fields` removes exactly
  the ``commit``/``date`` stamps, leaving the subset that determinism
  tests byte-compare.
"""

import json
import os
import subprocess
from datetime import date as _date
from pathlib import Path


def repo_root():
    """The repository root (where dated artifacts are checked in)."""
    return Path(__file__).resolve().parents[2]


def commit():
    """Best-effort revision id: $REPRO_COMMIT, else git, else unknown."""
    env = os.environ.get("REPRO_COMMIT")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root(),
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def artifact_date(env_var=None):
    """Today's ISO date, overridable through *env_var* for stable CI."""
    if env_var:
        override = os.environ.get(env_var)
        if override:
            return override
    return _date.today().isoformat()


def stamp(schema, env_var=None):
    """The provenance header every artifact payload starts from."""
    return {
        "schema": schema,
        "commit": commit(),
        "date": artifact_date(env_var),
    }


def dumps_artifact(payload):
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def canonical_fields(payload, exclude=("commit", "date")):
    """The reproducible subset: everything except provenance stamps."""
    return {k: v for k, v in payload.items() if k not in exclude}


def artifact_filename(prefix, when=None, env_var=None):
    return f"{prefix}_{when or artifact_date(env_var)}.json"


def write_artifact(payload, prefix, directory=".", env_var=None):
    """Write the canonical ``<prefix>_<date>.json`` into *directory*
    (created if missing); returns its path."""
    path = Path(directory) / artifact_filename(
        prefix, payload.get("date"), env_var)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_artifact(payload))
    return path


def load_artifact(path):
    with open(path) as handle:
        return json.load(handle)


def latest_artifact(prefix, directory=None):
    """Newest ``<prefix>_*.json`` by date-in-name, or ``None``.

    Defaults to the repo root, where dated artifacts are checked in.
    """
    if directory is None:
        directory = repo_root()
    paths = sorted(Path(directory).glob(f"{prefix}_*.json"))
    return paths[-1] if paths else None
