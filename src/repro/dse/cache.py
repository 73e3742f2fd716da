"""Content-addressed on-disk cache for per-benchmark sweep results.

A full 48-benchmark sweep re-simulates and re-times every benchmark on
every invocation — the exact cost the TDG methodology exists to avoid.
This module gives :func:`repro.dse.run_sweep` a persistent memo: each
benchmark evaluation is stored under a key derived from everything that
can change its result (workload name, scale, the full parameter set of
every core config, the BSA subsets, evaluation knobs, and a hash of the
modeling source itself), so cache entries invalidate automatically when
any modeling code or configuration changes.

Entries are written atomically (temp file + rename), so a sweep killed
mid-run leaves only complete entries behind and the next invocation
resumes from them.  Corrupt or truncated entries never crash the
sweep: they are moved to ``<root>/quarantine/`` (capped at
:data:`SweepCache.QUARANTINE_CAP` files, for post-mortem inspection)
with a warning, and the benchmark is recomputed.

Storage is pluggable behind the :class:`CacheBackend` protocol:
:class:`LocalDirBackend` (the historical on-disk layout, preserved
byte for byte) is the default, and :mod:`repro.cluster.backends` adds
an HTTP peer backend plus a read-through tier for multi-node sweeps.
:class:`SweepCache` remains the compatibility name for the local
backend — every existing caller and cache directory keeps working
unchanged.
"""

import hashlib
import json
import os
import tempfile
import threading
import warnings
from pathlib import Path

from repro.core_model import core_by_name
from repro.obs import counter, flight_event, span

#: Bumped when the cached record layout changes (forces a cold run).
CACHE_FORMAT = 1

#: Packages whose source participates in :func:`engine_version_hash` —
#: everything between a workload definition and a schedule summary.
_ENGINE_PACKAGES = (
    "accel", "analysis", "core_model", "energy", "exocore", "isa",
    "programs", "sim", "tdg", "workloads",
)

#: Individual modules outside those packages that also shape results.
_ENGINE_FILES = ("dse/sweep.py",)

#: CoreConfig attributes that participate in the cache key.
_CORE_ATTRS = (
    "name", "width", "rob_size", "iq_size", "dcache_ports",
    "alu_units", "mul_units", "fp_units", "in_order", "decode_depth",
    "branch_penalty", "vector_len",
)

_engine_hash = None
_engine_hash_lock = threading.Lock()


def _compute_engine_hash():
    import repro
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    paths = [root / rel for rel in _ENGINE_FILES]
    for package in _ENGINE_PACKAGES:
        paths.extend((root / package).rglob("*.py"))
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def engine_version_hash():
    """Digest of the modeling source tree (memoized per process).

    Any edit to the simulator, TDG engine, BSA models, schedulers,
    energy models or workload definitions yields a new hash and thus a
    cold cache — stale results can never be served after a code change.

    The digest walks and reads every modeling source file, so it is
    computed exactly once per process and memoized: a long-lived
    caller (the evaluation service builds a cache key per request)
    must not rehash the source tree on every key.  Thread-safe — the
    service computes keys from executor threads.
    """
    global _engine_hash
    if _engine_hash is None:
        with _engine_hash_lock:
            if _engine_hash is None:
                _engine_hash = _compute_engine_hash()
    return _engine_hash


def reset_engine_hash():
    """Drop the per-process memo (tests; after editing source)."""
    global _engine_hash
    with _engine_hash_lock:
        _engine_hash = None


def _core_signature(core_name):
    """Full parameter set of a core config (not just its name).

    Deliberately NOT memoized: tests (and embedders) mutate core
    configs in place and rely on the next cache key reflecting the
    change.  Signature construction is a dozen attribute reads —
    cheap next to the source-tree digest, which *is* memoized.
    """
    config = core_by_name(core_name)
    return {attr: getattr(config, attr) for attr in _CORE_ATTRS}


def cache_key(name, scale, core_names, subsets, max_invocations,
              with_amdahl, engine_hash=None):
    """Content hash of one benchmark evaluation's inputs."""
    material = {
        "format": CACHE_FORMAT,
        "benchmark": name,
        "scale": float(scale),
        "cores": [_core_signature(core) for core in core_names],
        "subsets": [list(subset) for subset in subsets],
        "max_invocations": int(max_invocations),
        "with_amdahl": bool(with_amdahl),
        "engine": engine_hash if engine_hash is not None
        else engine_version_hash(),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dse``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-dse"


def entry_payload(key, record, meta=None):
    """The canonical cache-entry payload dict for one record.

    Shared by every backend (and the cluster's peer-transfer wire
    format): identical inputs must serialize to identical bytes no
    matter which node or backend produced the entry.
    """
    payload = {"format": CACHE_FORMAT, "key": key, "record": record}
    if meta is not None:
        payload["meta"] = meta
    return payload


def dumps_entry(payload):
    """Canonical serialization of a cache-entry payload.

    This exact form (sorted keys, default separators) is what
    :class:`LocalDirBackend` has always written to disk — peers that
    exchange entries re-serialize through here, so a read-repaired or
    peer-fetched entry is byte-identical to a locally computed one.
    """
    return json.dumps(payload, sort_keys=True)


def entry_checksum(blob):
    """Integrity checksum of serialized entry bytes (hex sha256)."""
    if isinstance(blob, str):
        blob = blob.encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class CacheBackend:
    """Protocol for content-addressed record storage.

    A backend maps content keys (:func:`cache_key` hex digests) to
    canonical record payloads.  The contract every implementation must
    honor:

    - :meth:`load` returns the *record* payload for a key, or ``None``
      on any miss — including corruption, which a backend must contain
      (quarantine / discard), never raise through.
    - :meth:`store` persists a record (with optional ``meta``) so that
      a subsequent :meth:`load` of the same key returns an equal
      payload; writes must be atomic (no reader ever sees a torn
      entry as a valid one).
    - ``key in backend`` is a cheap existence probe.

    Byte determinism is the load-bearing property: a record stored
    through any backend and loaded from any other must re-serialize
    (via :func:`dumps_entry`) to identical bytes, which is what makes
    multi-node sweeps safe to merge and to hedge.
    """

    def load(self, key):
        raise NotImplementedError

    def store(self, key, record, meta=None):
        raise NotImplementedError

    def __contains__(self, key):
        return self.load(key) is not None


class LocalDirBackend(CacheBackend):
    """Directory of content-addressed benchmark records.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fan-out keeps
    directory listings short for large sweeps.
    """

    #: Max files kept in ``<root>/quarantine/``; beyond the cap a
    #: corrupt entry is deleted instead of preserved.
    QUARANTINE_CAP = 32

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, key):
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self):
        return self.root / "quarantine"

    def load(self, key):
        """Return the cached record payload, or None on miss.

        A corrupt / truncated / unreadable entry is quarantined (moved
        to ``<root>/quarantine/`` for inspection, capped — see
        :meth:`_quarantine`) and reported as a warning (and counted in
        ``repro_cache_corrupt_total``); an entry written by a
        different cache format is a silent miss.  Every outcome is
        visible in the obs registry — the warm-cache tests assert the
        hit counter directly instead of inferring it from timing.
        """
        path = self.path_for(key)
        with span("dse.cache.load", key=key[:12]) as current:
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                if not isinstance(payload, dict):
                    raise ValueError("cache entry is not an object")
                if payload.get("format") != CACHE_FORMAT:
                    self._count("misses", current, "stale-format")
                    flight_event("cache.miss", key=key[:12],
                                 outcome="stale-format")
                    return None
                self._count("hits", current, "hit")
                flight_event("cache.hit", key=key[:12])
                return payload["record"]
            except FileNotFoundError:
                self._count("misses", current, "miss")
                flight_event("cache.miss", key=key[:12])
                return None
            except (ValueError, KeyError, OSError) as exc:
                warnings.warn(
                    f"quarantining corrupt sweep cache entry {path}: "
                    f"{exc}", RuntimeWarning, stacklevel=2)
                self._quarantine(path)
                self._count("corrupt", current, "corrupt")
                self._count("misses", current, "corrupt")
                flight_event("cache.quarantine", key=key[:12])
                return None

    def _quarantine(self, path):
        """Move a corrupt entry aside instead of destroying evidence.

        The quarantine directory is capped at ``QUARANTINE_CAP`` files
        so a systematically corrupting environment cannot fill the
        disk; once full (or if the move itself fails) the entry is
        deleted like before.
        """
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            existing = sum(1 for entry in self.quarantine_dir.iterdir()
                           if entry.is_file())
            if existing >= self.QUARANTINE_CAP:
                raise OSError("quarantine full")
            os.replace(path, target)
            counter("repro_cache_quarantined_total",
                    "corrupt cache entries preserved for "
                    "inspection").inc()
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _count(event, current_span, outcome):
        counter(f"repro_cache_{event}_total",
                f"sweep cache {event} (lookups and recoveries)").inc()
        current_span.set(outcome=outcome)

    def store(self, key, record, meta=None):
        """Atomically persist one benchmark record under *key*.

        *meta* (optional) is a small self-describing dict of the
        evaluation inputs (benchmark name, scale, max_invocations,
        engine hash, ...).  The content key alone cannot be inverted
        back to its inputs, so without meta a cache entry is opaque;
        with it, ``repro cache export`` can turn the cache into
        surrogate training records.  Meta never participates in the
        key and old entries without it still load normally.
        """
        # Deterministic chaos hook: a ``torn:store=N`` fault truncates
        # this write mid-blob, simulating the torn entry a power cut
        # could leave behind (the quarantine path then recovers it).
        from repro.resilience.faultinject import consume_torn_store

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = dumps_entry(entry_payload(key, record, meta=meta))
        if consume_torn_store():
            blob = blob[:len(blob) // 2]
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with span("dse.cache.store", key=key[:12]):
                with os.fdopen(fd, "w") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            counter("repro_cache_stores_total",
                    "sweep cache entries written").inc()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def iter_entries(self):
        """Yield ``(key, payload)`` for every well-formed entry.

        Sorted by key, so export output is deterministic for a given
        cache population regardless of write order.  Quarantined,
        corrupt and foreign-format files and flight-recorder dumps are
        skipped silently — this is a read-only maintenance walk, not
        the hot load path.  ``sweeps/`` is skipped too: sweeps no
        longer write there, but older caches hold sweep progress
        manifests in it, which are not entries.
        """
        if not self.root.is_dir():
            return
        paths = []
        for shard in self.root.iterdir():
            if not shard.is_dir() \
                    or shard.name in ("quarantine", "blackbox", "sweeps"):
                continue
            paths.extend(shard.glob("*.json"))
        for path in sorted(paths, key=lambda p: p.stem):
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except (ValueError, OSError):
                continue
            if not isinstance(payload, dict) \
                    or payload.get("format") != CACHE_FORMAT:
                continue
            yield payload.get("key", path.stem), payload

    def __contains__(self, key):
        return self.path_for(key).exists()


class SweepCache(LocalDirBackend):
    """The historical name of the on-disk backend (kept stable).

    Existing callers (the sweep engine, the service, user code) and
    existing cache directories work unchanged; new code that cares
    about the storage layer should spell it :class:`LocalDirBackend`
    and accept any :class:`CacheBackend`.
    """


def export_records(cache, reference_core="IO2"):
    """Training records from a sweep cache, one dict per oracle cell.

    Each cached benchmark record holds one oracle schedule summary per
    (core, BSA-subset) pair; each becomes one row with the evaluation
    inputs from the entry's meta (``None`` for entries written before
    meta existed — consumers like
    :func:`repro.explore.loop.training_points_from_records` skip
    those) and Fig. 12-convention metrics against *reference_core*.
    Rows stream in (cache key, core, subset) order — deterministic for
    a given cache population.
    """
    for key, payload in cache.iter_entries():
        record = payload.get("record") or {}
        meta = payload.get("meta") or {}
        baseline = record.get("baseline") or {}
        reference = baseline.get(reference_core)
        for cell, summary in sorted(
                (record.get("oracle") or {}).items()):
            core, _, subset_key = cell.partition("|")
            cycles = summary.get("cycles")
            energy = summary.get("energy_pj")
            speedup = None
            energy_eff = None
            if reference is not None and cycles is not None:
                speedup = round(
                    reference[0] / max(1.0, float(cycles)), 9)
            if reference is not None and energy is not None:
                energy_eff = round(
                    reference[1] / max(1.0, float(energy)), 9)
            yield {
                "cache_key": key,
                "benchmark": meta.get("benchmark"),
                "scale": meta.get("scale"),
                "max_invocations": meta.get("max_invocations"),
                "engine": meta.get("engine"),
                "core": core,
                "subset": subset_key,
                "cycles": cycles,
                "energy_pj": energy,
                "speedup": speedup,
                "energy_eff": energy_eff,
            }
