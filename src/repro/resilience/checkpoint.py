"""Sweep checkpointing: an atomic manifest of completed task keys.

The content-addressed cache already makes a killed sweep cheap to
rerun; the checkpoint layers an explicit, atomic progress record on
top of it so a rerun can *prove* what it skipped:

- every completed benchmark is recorded as ``name -> cache key`` the
  moment its payload is persisted, via temp-file + rename (a SIGKILL
  never leaves a torn manifest);
- terminal failures are recorded alongside, so the next invocation
  (and the operator) sees what the previous run could not finish;
- ``repro sweep --resume`` loads the manifest and marks manifest-listed
  benchmarks whose key still matches as ``resumed`` in
  :class:`~repro.dse.sweep.SweepStats` — recomputing nothing that was
  already cached, and retrying only the failures.

Manifests are keyed by a *sweep signature* — a digest of the name
list, the evaluation knobs and the engine source hash — so resuming a
different sweep (or the same sweep after a code change) never matches
a stale manifest.
"""

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path


def sweep_signature(names, scale, core_names, subsets,
                    max_invocations, with_amdahl, engine_hash=None):
    """Digest identifying one sweep configuration (for the manifest)."""
    if engine_hash is None:
        from repro.dse.cache import engine_version_hash
        engine_hash = engine_version_hash()
    material = {
        "format": SweepCheckpoint.FORMAT,
        "names": sorted(names),
        "scale": float(scale),
        "cores": list(core_names),
        "subsets": [list(subset) for subset in subsets],
        "max_invocations": int(max_invocations),
        "with_amdahl": bool(with_amdahl),
        "engine": engine_hash,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


class SweepCheckpoint:
    """Atomic progress manifest for one sweep configuration.

    Lives at ``<cache-root>/sweeps/<signature>.json``.  All writes go
    through temp-file + rename; a write failure degrades to a warning
    (the checkpoint is an accelerator and a record, never a
    correctness dependency — the cache still holds every payload).
    """

    FORMAT = 1

    def __init__(self, root, signature):
        self.root = Path(root)
        self.signature = signature
        self.path = self.root / "sweeps" / f"{signature}.json"
        self._completed = {}        # name -> cache key
        self._failures = []         # TaskFailure.to_json() dicts

    def load(self):
        """Read a prior manifest; ``None`` if absent/corrupt/stale."""
        try:
            with open(self.path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) \
                or data.get("format") != self.FORMAT \
                or data.get("signature") != self.signature:
            return None
        self._completed = dict(data.get("completed", {}))
        self._failures = list(data.get("failures", []))
        return {"completed": dict(self._completed),
                "failures": list(self._failures)}

    def completed_key(self, name):
        return self._completed.get(name)

    def mark_done(self, name, key):
        """Record one completed benchmark (idempotent per key)."""
        if self._completed.get(name) == key:
            return
        self._completed[name] = key
        # A benchmark that now succeeded is no longer a failure.
        self._failures = [f for f in self._failures
                          if f.get("name") != name]
        self._write()

    def mark_failed(self, failure):
        """Record one terminal failure (a ``TaskFailure`` JSON dict)."""
        self._failures = [f for f in self._failures
                          if f.get("name") != failure.get("name")]
        self._failures.append(dict(failure))
        self._write()

    def _write(self):
        payload = {
            "format": self.FORMAT,
            "signature": self.signature,
            "completed": dict(sorted(self._completed.items())),
            "failures": self._failures,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.path.parent, prefix=".ckpt-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            warnings.warn(
                f"sweep checkpoint write failed ({self.path}): {exc}",
                RuntimeWarning, stacklevel=2)
