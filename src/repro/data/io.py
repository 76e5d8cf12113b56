"""Library serialization: the file form of :class:`NuclideLibrary`.

Building a paper-fidelity H.M. Large library takes a second; repeated
benchmark sessions (and downstream users who want a *fixed* data file
rather than a generator) benefit from caching the built arrays.  The format
is a single compressed ``.npz`` holding the library's three flat arrays
(``energy``, ``xs``, ``offsets`` — the library is the SoA, on disk as in
memory), the URR and S(alpha, beta) attachments, and a JSON ``__meta__``
member with the per-nuclide scalars and a schema version.  Loaded libraries
compare exactly equal to the originals.

Both functions take a path or an open binary stream, as ``numpy.savez`` and
``numpy.load`` do; a path is written under exactly the name given.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import DataError
from .library import LibraryConfig, NuclideLibrary
from .sab import SabTable
from .urr import URRTable

__all__ = ["save_library", "load_library"]

#: 2: the pointwise data is the library's three flat arrays (schema 1 spelt
#: it as two members per nuclide).
_SCHEMA_VERSION = 2

_NUCLIDE_SCALARS = (
    "name", "awr", "fissionable", "nu0", "watt_a", "watt_b",
    "has_urr", "urr_emin", "urr_emax", "has_sab",
)
_URR_ARRAYS = ("band_edges", "cdf", "factors")
_SAB_ARRAYS = ("e_in", "xs", "e_out", "mu")

#: What numpy, zipfile, json and the constructors raise on bytes that are not
#: a schema-2 library: a missing member, a torn archive, a field of the wrong
#: name or shape.
_MALFORMED = (
    KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile, zlib.error,
)


def save_library(library: NuclideLibrary, file: str | Path | BinaryIO) -> None:
    """Write a library as a compressed ``.npz`` to a path or binary stream."""
    meta = {
        "schema": _SCHEMA_VERSION,
        "model": library.model,
        "config": asdict(library.config),
        "nuclides": [
            {key: getattr(nuc, key) for key in _NUCLIDE_SCALARS}
            for nuc in library
        ],
        "urr": sorted(library.urr),
        "sab": sorted(library.sab),
    }
    arrays: dict[str, np.ndarray] = {
        "energy": library.energy,
        "xs": library.xs,
        "offsets": library.offsets,
    }
    for name, table in library.urr.items():
        for key in _URR_ARRAYS:
            arrays[f"urr/{name}/{key}"] = getattr(table, key)
    for name, table in library.sab.items():
        for key in _SAB_ARRAYS:
            arrays[f"sab/{name}/{key}"] = getattr(table, key)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    if isinstance(file, (str, Path)):
        # An open file, not the name: numpy appends ".npz" to a bare name.
        with open(file, "wb") as fh:
            np.savez_compressed(fh, **arrays)
    else:
        np.savez_compressed(file, **arrays)


def load_library(file: str | Path | BinaryIO) -> NuclideLibrary:
    """Read a library written by :func:`save_library` from a path or a
    seekable binary stream; anything else found there is a
    :class:`DataError`."""
    if isinstance(file, (str, Path)):
        try:
            fh = open(file, "rb")
        except FileNotFoundError:
            raise DataError(f"no library file at {file}") from None
        with fh:
            return load_library(fh)
    name = getattr(file, "name", "<stream>")
    try:
        with np.load(file) as data:
            return _parse(data)
    except DataError as exc:
        raise DataError(f"{name}: {exc}") from exc
    except _MALFORMED as exc:
        raise DataError(f"{name} is not a repro library file: {exc!r}") from exc


def _parse(data) -> NuclideLibrary:
    meta = json.loads(bytes(data["__meta__"]).decode())
    if meta.get("schema") != _SCHEMA_VERSION:
        raise DataError(
            f"unsupported library schema {meta.get('schema')!r} "
            f"(expected {_SCHEMA_VERSION})"
        )
    urr = {
        name: URRTable(**{k: data[f"urr/{name}/{k}"] for k in _URR_ARRAYS})
        for name in meta["urr"]
    }
    sab = {
        name: SabTable(**{k: data[f"sab/{name}/{k}"] for k in _SAB_ARRAYS})
        for name in meta["sab"]
    }
    config = LibraryConfig(**meta["config"])
    return NuclideLibrary.from_packed(
        data["energy"], data["xs"], data["offsets"], meta["nuclides"],
        urr, sab, config, meta["model"],
    )
