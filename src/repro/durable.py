"""Crash-safe file publication, the sealed frame, and quarantine: one copy.

Every durable artefact the tiers write — checkpoints, result-cache and
library-cache entries, spool records — is published all-or-nothing by
:func:`atomic_write_bytes`, and every damaged artefact a reader finds is
moved aside by :func:`quarantine`.  The whole-file ones (checkpoints and
cache entries) are sealed, ``body ‖ SHA-256(body)``, by
:func:`write_sealed`, and :func:`read_sealed` hands a parser only bytes
that verify.  (The journal, a streamed log with torn-tail repair, frames
each record itself.)  A leaf module: stdlib and :mod:`repro.errors` only,
so any layer may import it (``tools/check_layering.py``).
"""

from __future__ import annotations

import hashlib
import io
import os
from pathlib import Path

from .errors import CorruptEntryError

__all__ = ["atomic_write_bytes", "atomic_write_text", "quarantine",
           "read_sealed", "write_sealed"]

_DIGEST = 32  # SHA-256 trailer bytes


def atomic_write_bytes(path: str | Path, *chunks: bytes) -> Path:
    """Publish ``chunks``, concatenated, at ``path`` all-or-nothing.

    Write to a dot-prefixed temp file in the same directory (invisible to
    the ``*.json`` / ``ckpt-*`` globs readers use), flush + fsync, then
    ``os.replace`` — so a reader observes either the complete old file or
    the complete new file, never a half-record, even across a kill
    mid-write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """:func:`atomic_write_bytes` for text (UTF-8)."""
    return atomic_write_bytes(path, text.encode())


def write_sealed(path: str | Path, body: bytes) -> Path:
    """Atomically publish ``body`` followed by its 32-byte SHA-256."""
    return atomic_write_bytes(path, body, hashlib.sha256(body).digest())


def read_sealed(path: str | Path) -> io.BytesIO:
    """The verified body of a :func:`write_sealed` file, as a stream over
    the bytes read (once; cut before the digest, not copied).

    A file too short for a digest, or failing it, raises
    :class:`CorruptEntryError`; an unreadable one, its ``OSError``.
    """
    data = Path(path).read_bytes()
    if len(data) < _DIGEST:
        raise CorruptEntryError(f"truncated: {len(data)} bytes", path=path)
    body = memoryview(data)[:-_DIGEST]
    if hashlib.sha256(body).digest() != data[-_DIGEST:]:
        raise CorruptEntryError("digest mismatch", path=path)
    stream = io.BytesIO(data)
    stream.truncate(len(body))
    return stream


def quarantine(path: Path) -> None:
    """Rename a damaged file to ``<stem>.corrupt`` — out of the namespace
    readers glob, bytes kept for forensics.  A racing reader may already
    have moved or removed it; that is not an error."""
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        pass
