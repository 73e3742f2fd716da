"""Cache backends for multi-node sweeps: HTTP peer + tiered read-through.

A fleet shares results through content keys: every node computes the
same :func:`repro.dse.cache.cache_key` for the same evaluation, and
entries are canonical bytes (:func:`repro.dse.cache.dumps_entry`), so
an entry fetched from any peer is byte-identical to one computed
locally.  That property is what makes peer transfer safe to verify
with a checksum and safe to read-repair into the local tier.

:class:`HTTPPeerBackend` is the client of the peer-cache wire protocol
(``GET``/``PUT /v1/cache/{key}``, body = canonical entry blob,
``X-Repro-Checksum`` = hex sha256 of the body; sent through
:func:`repro.service.http.send_request` in the caller's trace) and
:func:`serve_cache` its one server side, mounted by both the
coordinator and the evaluation service.  Both ends check a blob with
the one :func:`repro.dse.cache.verify_entry`.  A response that fails
the checksum, fails to parse, or claims the wrong key/format is
*corrupt*: the bytes are quarantined for post-mortem (same capped
quarantine as the on-disk backend), the miss is counted, and the
caller recomputes — corruption on the wire can never poison a cache.

:class:`TieredCache` stacks a local directory under a peer: loads read
through (local first, then verified peer, repairing the local copy),
stores write through (local always, peer best-effort).  A stale or
corrupt local entry is thereby healed from a verified peer copy.
"""

import os
from pathlib import Path

from repro.dse.cache import (
    CacheBackend, EntryError, dumps_entry, entry_checksum,
    entry_payload, verify_entry,
)
from repro.obs import counter, flight_event
from repro.service.http import (
    HTTPStatusError, Response, TransportError, send_request,
)

#: Checksum header on every cache-entry transfer.
CHECKSUM_HEADER = "X-Repro-Checksum"

#: Max files kept in the peer quarantine directory (same cap as the
#: on-disk backend's, and shared with it when tiers share a root).
PEER_QUARANTINE_CAP = 32


class HTTPPeerBackend(CacheBackend):
    """Content-addressed cache served by a peer node over HTTP.

    *base_url* is the peer's root (``http://host:port``); entries live
    at ``/v1/cache/{key}``.  *quarantine_dir* (optional) is where
    corrupt response bytes are preserved; without it they are
    discarded after counting.

    ``load`` returns ``None`` on miss, corruption, *and* peer
    unavailability — a dead peer degrades to a cold cache, never an
    error.  ``store`` is best-effort for the same reason.  Use
    :meth:`load_entry` when the caller needs the full payload (meta
    included) for read-repair.
    """

    def __init__(self, base_url, quarantine_dir=None, timeout=10.0):
        self.base_url = base_url.rstrip("/")
        self.quarantine_dir = Path(quarantine_dir) \
            if quarantine_dir is not None else None
        self.timeout = timeout

    def _url(self, key):
        return f"{self.base_url}/v1/cache/{key}"

    # ------------------------------------------------------------------
    # Load path: fetch -> checksum -> validate -> payload.

    def load(self, key):
        payload = self.load_entry(key)
        return payload.get("record") if payload is not None else None

    def load_entry(self, key):
        """Fetch and verify the full entry payload, or ``None``.

        Verification: transport success, then
        :func:`~repro.dse.cache.verify_entry` with the
        ``X-Repro-Checksum`` header.  Any failure quarantines the
        bytes under the failed check's ``why`` and reports a miss.
        """
        from repro.resilience.faultinject import consume_torn_peer_get

        try:
            _status, headers, blob = send_request(
                "GET", self._url(key), timeout=self.timeout)
        except (HTTPStatusError, TransportError) as exc:
            if isinstance(exc, HTTPStatusError) and exc.status == 404:
                counter("repro_peer_cache_misses_total",
                        "peer cache lookups that missed").inc()
            else:
                counter("repro_peer_cache_errors_total",
                        "peer cache transfers that failed").inc()
            return None

        # Deterministic chaos hook: a ``tornpeer:get=N`` fault tears
        # the N-th successful GET body client-side, exactly like a
        # connection dropped mid-transfer would.
        if consume_torn_peer_get():
            blob = blob[:len(blob) // 2]

        try:
            payload = verify_entry(
                blob, key, checksum=headers.get(CHECKSUM_HEADER))
        except EntryError as exc:
            self._quarantine(key, blob, exc.why)
            return None
        counter("repro_peer_cache_hits_total",
                "verified peer cache hits").inc()
        flight_event("peer_cache.hit", key=key[:12])
        return payload

    def _quarantine(self, key, blob, why):
        """Preserve corrupt response bytes (capped), count, move on."""
        counter("repro_peer_cache_corrupt_total",
                "peer cache responses that failed verification") \
            .inc(why=why)
        flight_event("peer_cache.quarantine", key=key[:12], why=why)
        if self.quarantine_dir is None:
            return
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            existing = sum(1 for entry in self.quarantine_dir.iterdir()
                           if entry.is_file())
            if existing >= PEER_QUARANTINE_CAP:
                return
            target = self.quarantine_dir / f"peer-{key}.json"
            tmp = target.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, target)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Store path: canonical blob + checksum header.

    def store(self, key, record, meta=None):
        """Best-effort PUT of the canonical entry to the peer.

        Returns True when the peer acknowledged the write.  Failure is
        contained (counted, never raised): the local tier already owns
        the entry, and the peer can be refilled by any later store or
        by its own computation of the same key.
        """
        blob = dumps_entry(entry_payload(key, record, meta=meta)) \
            .encode("utf-8")
        try:
            send_request("PUT", self._url(key), blob,
                         {"Content-Type": "application/json",
                          CHECKSUM_HEADER: entry_checksum(blob)},
                         timeout=self.timeout)
        except (HTTPStatusError, TransportError):
            counter("repro_peer_cache_errors_total",
                    "peer cache transfers that failed").inc()
            return False
        counter("repro_peer_cache_stores_total",
                "entries pushed to a peer cache").inc()
        return True

    def __contains__(self, key):
        return self.load_entry(key) is not None


def serve_cache(router, local):
    """Mount the protocol's server side for *local* on *router*.

    ``GET /v1/cache/{key}`` answers the exact on-disk entry bytes with
    their ``X-Repro-Checksum``; ``PUT`` checks the pushed blob with
    :func:`~repro.dse.cache.verify_entry` and stores it atomically in
    *local* (a :class:`~repro.dse.cache.LocalDirBackend`: a PUT never
    echoes on to another peer).  A failed PUT is a 400; a checksum
    mismatch is also counted as ``put-checksum`` corruption.  The
    evaluation service and the coordinator both serve through here.
    """
    async def handle_get(request, params):
        key = params["key"]
        try:
            blob = local.path_for(key).read_bytes()
        except OSError:
            return Response.error(404, f"no cache entry {key[:12]}...")
        return Response(status=200, body=blob,
                        headers={CHECKSUM_HEADER: entry_checksum(blob)})

    async def handle_put(request, params):
        key = params["key"]
        try:
            payload = verify_entry(
                request.body, key,
                checksum=request.headers.get(CHECKSUM_HEADER.lower()))
        except EntryError as exc:
            if exc.why == "checksum-mismatch":
                counter("repro_peer_cache_corrupt_total",
                        "peer cache responses that failed "
                        "verification").inc(why="put-checksum")
            return Response.error(400, str(exc))
        local.store(key, payload["record"], meta=payload.get("meta"))
        return Response.json({"stored": True})

    router.add("GET", "/v1/cache/{key}", handle_get)
    router.add("PUT", "/v1/cache/{key}", handle_put)


class TieredCache(CacheBackend):
    """Local directory backed by a peer: read-through + write-through.

    ``load`` order: local hit wins; otherwise a verified peer entry is
    **read-repaired** into the local tier (stored through the local
    backend's atomic write, so the repaired entry is byte-identical to
    a locally computed one — including its ``meta``) and returned.  A
    local entry that was quarantined as corrupt is therefore healed on
    the very next load, provided any peer still holds a good copy.

    ``store`` writes the local tier first (durability), then pushes to
    the peer best-effort (sharing).  ``root``/``path_for`` delegate to
    the local tier so existing callers (blackbox dir, runlog, exports)
    keep working when handed a tiered cache.
    """

    def __init__(self, local, peer, write_through=True):
        self.local = local
        self.peer = peer
        self.write_through = write_through

    @property
    def root(self):
        return self.local.root

    def path_for(self, key):
        return self.local.path_for(key)

    @property
    def quarantine_dir(self):
        return self.local.quarantine_dir

    def load(self, key):
        record = self.local.load(key)
        if record is not None:
            return record
        if hasattr(self.peer, "load_entry"):
            # One fetch, meta included: a corrupt/torn response is a
            # miss for *this* load (the caller recomputes or retries),
            # and a verified one repairs the local tier byte-for-byte.
            payload = self.peer.load_entry(key)
        else:
            record = self.peer.load(key)
            payload = entry_payload(key, record) \
                if record is not None else None
        if payload is None:
            return None
        counter("repro_cache_read_repairs_total",
                "local entries repaired from a verified peer").inc()
        flight_event("cache.read_repair", key=key[:12])
        self.local.store(key, payload["record"],
                         meta=payload.get("meta"))
        return payload["record"]

    def store(self, key, record, meta=None):
        path = self.local.store(key, record, meta=meta)
        if self.write_through:
            self.peer.store(key, record, meta=meta)
        return path

    def iter_entries(self):
        return self.local.iter_entries()

    def __contains__(self, key):
        return key in self.local or key in self.peer
