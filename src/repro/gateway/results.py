"""Fingerprint+spec result cache: identical jobs answered without transport.

Heavy traffic repeats itself — the same canned scenario, the same sweep
resubmitted, the same curriculum job from a thousand clients.  Because a
:class:`~repro.serve.jobs.JobSpec`'s payload is a pure function of its
physics identity (the serve invariant, tested since PR 2), the gateway
can legally answer a repeat from a cache: the key is
:meth:`JobSpec.cache_key` (SHA-256 over the canonical identity document)
and the value is the completed :class:`~repro.serve.jobs.JobResult`'s
``to_dict()`` document (exact-float JSON on disk), so a hit is
**byte-identical in its physics payload** to recomputation
(``payload_json`` equality; the determinism tests prove it).  The
gateway hands ``put`` the document it has just journaled — a landing is
encoded once and held once; a replayed landing's entry *is* its restored
result's field dict.  Decoded documents (journal, disk) share canonical
field names and enumerated strings, as built ones do.

Mechanics:

* **LRU memory tier** with an optional ``max_entries`` bound; eviction is
  strict least-recently-used (hits refresh recency).
* **Optional disk tier** — one ``<key>.json`` per entry, published
  atomically (:mod:`repro.durable`), so a cache directory survives process restarts and is
  shared by consecutive CLI invocations.  Memory eviction never deletes
  disk entries; the directory is the durable tier.
* **Sealed entries.**  A disk entry is the canonical JSON of the result
  document in :mod:`repro.durable`'s sealed frame (SHA-256 over the
  bytes), verified on every read.  A corrupt, truncated, or tampered
  entry — or a whole one this build cannot decode, such as a result
  field it does not know — is **quarantined** (renamed to
  ``<key>.corrupt``, counted in ``corrupt_entries``) and reported as a
  miss; readers never crash and never serve damaged bytes.
* **First insert wins.**  Concurrent ``put`` of the same key (two shards
  completing identical specs in flight simultaneously) dedups under the
  lock; the stored payloads are bit-identical anyway, so either is valid.
* **Only ``done`` results are cacheable.**  Failed, expired, and
  poisoned results are refused — a poisoned job must trip the breaker on
  every resubmission, never be replayed from cache.

On a hit the cached payload is re-stamped with the *requesting* spec's
scheduling identity (job id, scenario provenance) and marked
``library_source="result-cache"`` with zeroed service accounting —
physics from the cache, bookkeeping from this submission
(:meth:`ResultCache.restamp`, which journal replay also uses for a
by-reference ``cache-hit``).  **Results handed out share their trace
lists and counters with the cache entry and are read-only** — a restored
landing's scalar fields too, since its field dict is the entry.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path

from ..durable import quarantine, read_sealed, write_sealed
from ..errors import CorruptEntryError, GatewayError, JobError
from ..serve.jobs import JobResult, JobSpec, compact

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe spec-keyed cache of completed job results."""

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise GatewayError(
                f"max_entries must be >= 1 when set, got {max_entries}"
            )
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: key -> stored result dict, in LRU order (last = most recent).
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected = 0
        #: Disk entries that failed their digest/shape check on read and
        #: were quarantined (renamed ``*.corrupt``) instead of served.
        self.corrupt_entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Keys in LRU order, oldest first (eviction order)."""
        with self._lock:
            return list(self._entries)

    # -- Lookup --------------------------------------------------------------

    def get(self, spec: JobSpec, key: str | None = None) -> JobResult | None:
        """The cached result for ``spec``'s physics (``key``, when the
        caller has already computed it), or ``None`` on miss."""
        if key is None:
            key = spec.cache_key()
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None:
                self._entries.move_to_end(key)
            elif self.directory is not None:
                stored = self._load_disk(key)
                if stored is not None:
                    self._entries[key] = stored
                    self._evict_over_bound()
            if stored is None:
                self.misses += 1
                return None
            self.hits += 1
        return self.restamp(stored, spec)

    @staticmethod
    def restamp(stored: dict, spec: JobSpec) -> JobResult:
        """``stored``'s physics under ``spec``'s scheduling identity: the
        payload is the cached one, the bookkeeping is this request's.  One
        level is copied; the traces and counters are ``stored``'s own."""
        return JobResult.from_dict({
            **stored,
            "job_id": spec.job_id,
            "case_id": spec.case_id,
            "suite_id": spec.suite_id,
            "scenario_fingerprint": spec.scenario_fingerprint,
            "worker_id": -1,
            "attempts": 1,
            "wait_seconds": 0.0,
            "service_seconds": 0.0,
            "build_seconds": 0.0,
            "library_source": "result-cache",
        })

    # -- Insert --------------------------------------------------------------

    def put(
        self, spec: JobSpec, result: JobResult,
        key: str | None = None, doc: dict | None = None,
    ) -> bool:
        """Cache ``result`` under ``spec``'s key; returns whether stored.

        Refuses non-``done`` results (poison must stay poisonous) and
        dedups concurrent inserts of the same key (first wins).  ``doc``
        is ``result.to_dict()`` when the caller already built it; the
        cache keeps that dict, so the caller must not touch it again.
        """
        if result.status != "done":
            self.rejected += 1
            return False
        if key is None:
            key = spec.cache_key()
        if doc is None:
            doc = result.to_dict()
        with self._lock:
            if key in self._entries:
                return False
            if (
                self.directory is not None
                and self._disk_path(key).exists()
            ):
                return False
            self._entries[key] = doc
            self.insertions += 1
            if self.directory is not None:
                write_sealed(
                    self._disk_path(key),
                    json.dumps(doc, sort_keys=True).encode(),
                )
            self._evict_over_bound()
        return True

    # -- Internals -----------------------------------------------------------

    def _evict_over_bound(self) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _disk_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load_disk(self, key: str) -> dict | None:
        """A verified, decodable entry's result dict, or ``None``.

        Every failure mode — unreadable file, a failed seal, torn JSON, a
        document :meth:`JobResult.from_dict` refuses — is the same
        response: quarantine the file, count it, report a miss.  A
        concurrent reader racing the quarantine rename simply sees the
        file vanish (also a miss).
        """
        path = self._disk_path(key)
        try:
            doc = compact(json.load(read_sealed(path)))
            JobResult.from_dict(doc)
        except FileNotFoundError:
            return None
        except (CorruptEntryError, OSError, ValueError, JobError):
            self.corrupt_entries += 1
            quarantine(path)
            return None
        return doc

    # -- Observability -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "insertions": self.insertions,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "corrupt_entries": self.corrupt_entries,
                "directory": (
                    str(self.directory) if self.directory else None
                ),
            }
