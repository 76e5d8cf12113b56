"""Crash-safe file publication and quarantine: the one copy of each.

Every durable artefact the tiers write — checkpoints, result-cache
entries, library-cache digests, spool records, metrics — is published
all-or-nothing by :func:`atomic_write_bytes`, and every damaged artefact
a reader finds is moved aside by :func:`quarantine`.  A leaf module:
stdlib only, so any layer may import it (``tools/check_layering.py``).
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "quarantine"]


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Publish ``data`` at ``path`` all-or-nothing.

    Write to a dot-prefixed temp file in the same directory (invisible to
    the ``*.json`` / ``ckpt-*`` globs readers use), flush + fsync, then
    ``os.replace`` — so a reader observes either the complete old file or
    the complete new file, never a half-record, even across a kill
    mid-write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """:func:`atomic_write_bytes` for text (UTF-8)."""
    return atomic_write_bytes(path, text.encode())


def quarantine(path: Path) -> None:
    """Rename a damaged file to ``<stem>.corrupt`` — out of the namespace
    readers glob, bytes kept for forensics.  A racing reader may already
    have moved or removed it; that is not an error."""
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        pass
