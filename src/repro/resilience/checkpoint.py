"""Versioned, integrity-hashed checkpoints of full simulation state.

A checkpoint captures everything the power-iteration driver needs to
continue a run as if it had never stopped: the batch index, the next
generation's source sites, the per-batch estimator and entropy traces, the
source-resampling RNG state, the work counters, the (optional) power-tally
accumulators, and the profiling segment so far.  Per-particle transport RNG
needs **no** state here at all — streams are re-derived from global particle
ids (:mod:`repro.rng.lcg`), which is what makes bit-identical resume cheap.

On-disk format (one file per checkpoint)::

    MAGIC (8 bytes)  "RPRCKPT" + format byte
    meta length (8 bytes, little-endian)
    meta JSON        (version, batch index, RNG state, counters, fingerprint)
    payload          (NumPy .npz archive of the array state)
    SHA-256 digest   (32 bytes, over every preceding byte)

The digest trailer is :mod:`repro.durable`'s sealed frame, published
atomically by :func:`~repro.durable.write_sealed` — a crash mid-write can
never corrupt the latest good checkpoint, and :func:`latest_checkpoint`
never sees partial files.  Everything behind a verified seal is still
parsed as untrusted bytes: any malformed body is a :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path
from tokenize import TokenError

import numpy as np

from ..durable import read_sealed, write_sealed
from ..errors import CheckpointError, CorruptEntryError

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_CADENCE",
    "CheckpointState",
    "settings_fingerprint",
    "checkpoint_path",
    "latest_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

#: Format version; bumped on any incompatible change to meta or payload.
CHECKPOINT_VERSION = 1

#: Default checkpoint cadence (batches between writes) used by the CLI and
#: benchmarks; chosen so write overhead stays well under 5% of batch time.
DEFAULT_CADENCE = 5

_MAGIC = b"RPRCKPT\x01"
_SUFFIX = ".rpk"
#: What parsing a digest-valid but malformed body can raise (JSON, struct,
#: zip and ``.npy`` decoding, a meta of the wrong shape).
_MALFORMED = (
    AttributeError, KeyError, TypeError, ValueError, EOFError, OverflowError,
    RuntimeError, TokenError, struct.error, zipfile.BadZipFile, zlib.error,
)

#: Settings fields that do not affect the physics trajectory and are
#: therefore excluded from the compatibility fingerprint (a run checkpointed
#: with a different cadence is still bit-identical to one without).
_NON_PHYSICS_FIELDS = frozenset({"checkpoint_every", "checkpoint_dir"})


def settings_fingerprint(settings) -> str:
    """SHA-256 over the physics-relevant fields of a ``Settings`` dataclass.

    Resuming under a different fingerprint would silently break the
    bit-identical guarantee, so :func:`load_checkpoint` can enforce a match.
    """
    import dataclasses

    items = {
        f.name: getattr(settings, f.name)
        for f in dataclasses.fields(settings)
        if f.name not in _NON_PHYSICS_FIELDS
    }
    blob = json.dumps(items, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CheckpointState:
    """Full between-batch simulation state (the payload of one checkpoint)."""

    #: Number of batches fully recorded before this snapshot.
    batches_done: int
    #: Global particle-id offset for the next generation (RNG keying).
    id_offset: int
    n_inactive: int
    #: Compatibility fingerprint of the run's settings.
    fingerprint: str
    #: Next generation's source sites.
    positions: np.ndarray
    energies: np.ndarray
    #: Per-batch estimator and entropy traces so far.
    k_collision: list[float] = field(default_factory=list)
    k_absorption: list[float] = field(default_factory=list)
    k_track: list[float] = field(default_factory=list)
    entropy: list[float] = field(default_factory=list)
    #: ``np.random.Generator`` bit-generator state for source resampling.
    source_rng_state: dict = field(default_factory=dict)
    #: Work-counter values at the snapshot (restored so resumed totals match).
    counters: dict = field(default_factory=dict)
    #: Wall seconds consumed by the pre-crash segment(s).
    elapsed_seconds: float = 0.0
    #: Serialized :class:`repro.profiling.timers.Profile` of prior segments.
    profile_json: str | None = None
    #: Power-tally accumulators (``None`` when the tally is off).
    power: dict | None = None
    version: int = CHECKPOINT_VERSION


def checkpoint_path(directory: str | Path, batches_done: int) -> Path:
    """Canonical file name for a snapshot taken after ``batches_done``."""
    return Path(directory) / f"ckpt-{batches_done:06d}{_SUFFIX}"


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-batch checkpoint in ``directory``, or ``None``."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    found = sorted(directory.glob(f"ckpt-*{_SUFFIX}"))
    return found[-1] if found else None


def _pack(state: CheckpointState) -> bytes:
    arrays: dict[str, np.ndarray] = {
        "positions": np.asarray(state.positions, dtype=np.float64),
        "energies": np.asarray(state.energies, dtype=np.float64),
        "k_collision": np.asarray(state.k_collision, dtype=np.float64),
        "k_absorption": np.asarray(state.k_absorption, dtype=np.float64),
        "k_track": np.asarray(state.k_track, dtype=np.float64),
        "entropy": np.asarray(state.entropy, dtype=np.float64),
    }
    meta = {
        "version": state.version,
        "batches_done": state.batches_done,
        "id_offset": state.id_offset,
        "n_inactive": state.n_inactive,
        "fingerprint": state.fingerprint,
        "source_rng_state": state.source_rng_state,
        "counters": state.counters,
        "elapsed_seconds": state.elapsed_seconds,
        "profile_json": state.profile_json,
        "power": None,
    }
    if state.power is not None:
        arrays["power_sum"] = np.asarray(state.power["sum"], dtype=np.float64)
        arrays["power_sum_sq"] = np.asarray(
            state.power["sum_sq"], dtype=np.float64
        )
        meta["power"] = {
            "shape": list(state.power["shape"]),
            "half_width": state.power["half_width"],
            "n_batches": state.power["n_batches"],
        }
    buf = BytesIO()
    np.savez(buf, **arrays)
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    header = _MAGIC + struct.pack("<Q", len(meta_bytes)) + meta_bytes
    return header + buf.getvalue()


def save_checkpoint(
    state: CheckpointState, path: str | Path, timers=None
) -> Path:
    """Atomically write ``state``, sealed, to ``path``.

    ``timers`` may be a :class:`repro.profiling.timers.TimerRegistry`; the
    write is then recorded under the ``checkpoint_write`` routine.
    """
    from contextlib import nullcontext

    path = Path(path)
    ctx = timers.timer("checkpoint_write") if timers is not None else nullcontext()
    with ctx:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_sealed(path, _pack(state))
    return path


def load_checkpoint(
    path: str | Path, expect_fingerprint: str | None = None, timers=None
) -> CheckpointState:
    """Read, verify, and unpack a checkpoint.

    Raises :class:`repro.errors.CheckpointError` on a missing file, a
    failed seal (truncation or digest mismatch), bad magic, an unsupported
    version, a malformed body, or (when ``expect_fingerprint`` is given) a
    settings mismatch.
    """
    from contextlib import nullcontext

    path = Path(path)
    ctx = (
        timers.timer("checkpoint_restore") if timers is not None else nullcontext()
    )
    with ctx:
        try:
            body = read_sealed(path)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        except CorruptEntryError as exc:
            raise CheckpointError(
                f"checkpoint {path} failed integrity check ({exc})"
            ) from exc
        if body.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"checkpoint {path} has bad magic bytes")
        try:
            return _unpack(body, path, expect_fingerprint)
        except _MALFORMED as exc:
            raise CheckpointError(
                f"checkpoint {path} is malformed: {exc!r}"
            ) from exc


def _unpack(body: BytesIO, path: Path, expect_fingerprint) -> CheckpointState:
    """The state in ``body`` (positioned past the magic)."""
    (meta_len,) = struct.unpack("<Q", body.read(8))
    meta_bytes = body.read(meta_len)
    if len(meta_bytes) < meta_len:
        raise CheckpointError(f"checkpoint {path} is truncated")
    meta = json.loads(meta_bytes)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {meta.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if (
        expect_fingerprint is not None
        and meta["fingerprint"] != expect_fingerprint
    ):
        raise CheckpointError(
            "checkpoint was written under different settings "
            f"(fingerprint {meta['fingerprint'][:12]}... != "
            f"{expect_fingerprint[:12]}...); bit-identical resume "
            "requires identical physics settings"
        )
    with np.load(body) as npz:
        arrays = {k: npz[k] for k in npz.files}

    power = None
    if meta["power"] is not None:
        power = {
            "shape": tuple(meta["power"]["shape"]),
            "half_width": meta["power"]["half_width"],
            "n_batches": meta["power"]["n_batches"],
            "sum": arrays["power_sum"],
            "sum_sq": arrays["power_sum_sq"],
        }
    return CheckpointState(
        batches_done=meta["batches_done"],
        id_offset=meta["id_offset"],
        n_inactive=meta["n_inactive"],
        fingerprint=meta["fingerprint"],
        positions=arrays["positions"],
        energies=arrays["energies"],
        k_collision=[float(v) for v in arrays["k_collision"]],
        k_absorption=[float(v) for v in arrays["k_absorption"]],
        k_track=[float(v) for v in arrays["k_track"]],
        entropy=[float(v) for v in arrays["entropy"]],
        source_rng_state=meta["source_rng_state"],
        counters=meta["counters"],
        elapsed_seconds=meta["elapsed_seconds"],
        profile_json=meta["profile_json"],
        power=power,
        version=meta["version"],
    )
