"""On-disk cross-section library cache keyed by content fingerprint.

Library construction is the service's dominant *fixed* cost — the job-level
analogue of the paper's PCIe offload overhead: a price paid once that must
be amortized over as much work as possible.  The cache turns N jobs sharing
one :func:`~repro.data.library.library_fingerprint` into exactly one build:
the first worker to need a library builds it and publishes the ``.npz``
atomically (:func:`repro.durable.atomic_write_bytes`); everyone else loads it.

Cross-process single-build is enforced with an ``O_CREAT | O_EXCL``
lockfile: one builder wins the lock, the rest wait for the published file
to appear.  A stale lock (builder died mid-build) is bounded by
``build_timeout_s`` — waiters fall back to building locally rather than
hanging, trading one redundant build for liveness.

An entry is one ``.npz`` in :mod:`repro.durable`'s sealed frame (its
SHA-256 appended), and every load reads the file once, verifies those
bytes and parses the same bytes.  A mismatch — bit rot, a tampered file,
a torn write that still unpickles — or a whole entry this version cannot
parse is **quarantined** (renamed to ``.corrupt`` and counted) and the
library is rebuilt; readers never crash and never compute on damaged
data.
"""

from __future__ import annotations

import io
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..data.io import load_library, save_library
from ..data.library import (
    LibraryConfig,
    NuclideLibrary,
    build_library,
    library_fingerprint,
)
from ..durable import quarantine, read_sealed, write_sealed
from ..errors import CorruptEntryError, DataError, ServeError

__all__ = ["CacheOutcome", "LibraryCache"]

_SUFFIX = ".npz"


@dataclass(frozen=True)
class CacheOutcome:
    """How one library was obtained (feeds the service's cache metrics)."""

    fingerprint: str
    #: ``built`` (cache miss), ``disk-cache`` (hit), or ``memory``
    #: (worker-local hit; stamped by the worker, never by this module).
    source: str
    build_seconds: float = 0.0
    load_seconds: float = 0.0


class LibraryCache:
    """Fingerprint-keyed directory of built libraries."""

    def __init__(
        self, directory: str | Path, *, build_timeout_s: float = 120.0
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if build_timeout_s <= 0:
            raise ServeError("build_timeout_s must be positive")
        self.build_timeout_s = build_timeout_s
        #: Cache files that failed digest verification (or failed to
        #: load at all) and were quarantined instead of used.
        self.corrupt_entries = 0

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / f"lib-{fingerprint[:24]}{_SUFFIX}"

    def _lock_for(self, fingerprint: str) -> Path:
        return self.directory / f"lib-{fingerprint[:24]}.lock"

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def get_or_build(
        self, model: str, config: LibraryConfig
    ) -> tuple[NuclideLibrary, CacheOutcome]:
        """Return the library for ``(model, config)``, building at most once
        across all processes sharing this cache directory (stale-lock
        fallback excepted)."""
        fp = library_fingerprint(model, config)
        path = self.path_for(fp)

        hit = self._try_load(path, fp)
        if hit is not None:
            return hit

        lock = self._lock_for(fp)
        deadline = time.monotonic() + self.build_timeout_s
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                # Another process is building; wait for it to publish.
                time.sleep(0.02)
                hit = self._try_load(path, fp)
                if hit is not None:
                    return hit
                if time.monotonic() > deadline:
                    # Stale lock: the builder died.  Build locally.
                    return self._build_and_publish(model, config, fp, path)
                continue
            os.close(fd)
            try:
                # Re-check under the lock: the previous holder may have
                # published between our miss and our acquisition.
                hit = self._try_load(path, fp)
                if hit is not None:
                    return hit
                return self._build_and_publish(model, config, fp, path)
            finally:
                try:
                    os.unlink(lock)
                except FileNotFoundError:
                    pass

    # -- Internals -----------------------------------------------------------

    def _try_load(
        self, path: Path, fp: str
    ) -> tuple[NuclideLibrary, CacheOutcome] | None:
        if not path.exists():
            return None
        t0 = time.perf_counter()
        try:
            library = load_library(read_sealed(path))
        except (CorruptEntryError, DataError, OSError):
            # A cache must never be a source of failure: whatever fails
            # the seal or the parse (an older schema too) is rebuilt.
            self.corrupt_entries += 1
            quarantine(path)
            return None
        dt = time.perf_counter() - t0
        return library, CacheOutcome(fp, "disk-cache", load_seconds=dt)

    def _build_and_publish(
        self, model: str, config: LibraryConfig, fp: str, path: Path
    ) -> tuple[NuclideLibrary, CacheOutcome]:
        t0 = time.perf_counter()
        library = build_library(model, config)
        build_s = time.perf_counter() - t0
        buf = io.BytesIO()
        save_library(library, buf)
        write_sealed(path, buf.getbuffer())
        return library, CacheOutcome(fp, "built", build_seconds=build_s)

    # -- Observability --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "entries": len(list(self.directory.glob(f"*{_SUFFIX}"))),
            "corrupt_entries": self.corrupt_entries,
        }
