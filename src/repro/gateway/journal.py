"""Versioned append-only write-ahead journal for the gateway tier.

The gateway's state machine (accepted → routed → completed, plus cache
hits, leader elections, and quarantines) lives in memory; a killed
process loses all of it.  The journal makes every transition durable
*before* the in-memory mutation it describes — the write-ahead rule —
so a restarted gateway can replay the file and land in exactly the
state the dead one had journaled:

* jobs whose results landed (a ``completed``/``cache-hit`` record) are
  restored verbatim, never re-simulated;
* jobs accepted but unfinished are re-admitted in original-arrival
  order;
* quarantine and circuit-breaker state replays deterministically (the
  breaker is a pure function of its record_* call sequence).

Framing
-------

The file is line-oriented JSONL with a per-record integrity frame::

    repro-journal v1\\n
    {length:08d} {sha256hex} {payload-json}\\n
    {length:08d} {sha256hex} {payload-json}\\n
    ...

A payload crosses the file once: a ``cache-hit`` record names the job
whose landing *in this journal* carries the result (``source=<job_id>``)
and embeds it (``result=...``) only when there is none — the hit came
from a disk entry an earlier run left.

``length`` is the byte length of the JSON payload and ``sha256hex`` its
SHA-256 — so a **torn tail** (a partially written final frame after a
crash, the only corruption an append-only file can suffer) is *detected*
by the frame check and **truncated, not parsed**.  Everything before the
first bad frame is intact by construction; :meth:`WriteAheadJournal.scan`
returns it and (with ``repair=True``) trims the file back to the last
good frame so appends continue cleanly.  The walker reads frame by frame
from one buffered handle: a scan or replay holds one frame, never the file.

Every payload carries a ``seq`` that must increase by exactly one from
1.  A gap or repeat inside *valid* frames cannot be produced by a crash
— only by splicing or replaying the file — and raises a typed
:class:`~repro.errors.JournalError` instead of being repaired.

``on_append`` is the chaos hook: called *after* each record is durably
written, it lets :mod:`repro.chaos` simulate a process kill between any
two journal records (raise inside the hook = die with record N on disk
and record N+1 never written).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import JournalError

__all__ = ["JournalRecord", "JournalScan", "WriteAheadJournal"]

_HEADER = b"repro-journal v1\n"
#: ``{length:08d} {sha256hex} `` — 8 digits, space, 64 hex chars, space.
_FRAME_PREFIX_LEN = 8 + 1 + 64 + 1


@dataclass(frozen=True)
class JournalRecord:
    """One journaled state transition: a sequence number, a kind, and
    the kind-specific data document."""

    seq: int
    kind: str
    data: dict = field(default_factory=dict)

    def to_payload(self) -> bytes:
        doc = {"seq": self.seq, "kind": self.kind, **self.data}
        return json.dumps(doc, sort_keys=True).encode()

    @classmethod
    def from_payload(cls, payload: bytes) -> "JournalRecord":
        doc = json.loads(payload.decode())
        seq = doc.pop("seq")
        kind = doc.pop("kind")
        return cls(seq=int(seq), kind=str(kind), data=doc)


@dataclass
class JournalScan:
    """The result of reading a journal: every intact record, in order,
    plus how many torn-tail bytes were discarded (0 for a clean file)."""

    path: Path
    records: list[JournalRecord] = field(default_factory=list)
    truncated_bytes: int = 0

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0

    def by_kind(self, kind: str) -> list[JournalRecord]:
        return [r for r in self.records if r.kind == kind]


def _frame(payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    return b"%08d %s %s\n" % (len(payload), digest.encode(), payload)


class WriteAheadJournal:
    """Append-only, SHA-256-framed journal with torn-tail repair."""

    def __init__(
        self, path: str | Path, *, fsync: bool = False
    ) -> None:
        self.path = Path(path)
        #: ``fsync=True`` makes every append survive power loss, not just
        #: process death; the chaos harness models process death only, so
        #: the default trades the syscall for throughput.
        self.fsync = fsync
        #: Post-append observer ``f(record)``; raising inside it models a
        #: kill *between* journal records (the record is already durable).
        self.on_append = None
        self._fh = None
        self._next_seq = 1
        #: Whether :meth:`replay` has set ``_next_seq`` from the file.
        self._positioned = False
        self._closed = False
        self.appended = 0

    # -- Reading ---------------------------------------------------------

    @classmethod
    def scan(
        cls, path: str | Path, *, repair: bool = False
    ) -> JournalScan:
        """Read every intact record; detect (optionally trim) a torn tail.

        A missing or empty file scans as zero records.  A torn tail —
        truncated header, bad length digits, short frame, digest
        mismatch, missing newline, or unparsable JSON at the *end* of
        the file — stops the scan there; with ``repair=True`` the file
        is truncated back to the last good frame.  A ``seq`` that does
        not increase by exactly one across valid frames raises
        :class:`JournalError` (splice damage, never crash damage).
        """
        scan = JournalScan(path=Path(path))
        _, scan.truncated_bytes = cls._walk(
            scan.path, scan.records.append, repair
        )
        return scan

    @classmethod
    def _walk(cls, path: Path, visit, repair: bool) -> tuple[int, int]:
        """The one frame walker under :meth:`scan` and :meth:`replay`:
        read frame by frame from one buffered handle, pass each verified
        record to ``visit`` in order, keeping none; returns ``(records
        visited, torn-tail bytes)``."""
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return 0, 0
        good = seq = 0
        with fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(len(_HEADER))
            # A header cut short is a crash inside the very first write:
            # the whole file is tail.
            if len(header) == len(_HEADER):
                if header != _HEADER:
                    raise JournalError(
                        f"{path}: not a repro-journal v1 file "
                        f"(header {header[:16]!r})"
                    )
                good = len(_HEADER)
                while good < size:
                    record, frame_len = cls._read_frame(fh, good)
                    if record is None:
                        break
                    if record.seq != seq + 1:
                        raise JournalError(
                            f"{path}: sequence discontinuity at byte {good}: "
                            f"expected seq {seq + 1}, found {record.seq} "
                            f"(journal spliced or replayed?)"
                        )
                    visit(record)
                    seq += 1
                    good += frame_len
        if good < size and repair:
            with open(path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())
        return seq, size - good

    @staticmethod
    def _read_frame(fh, offset: int):
        """``(record, frame_length)`` at ``fh``'s position (byte
        ``offset``), or ``(None, 0)`` if the bytes from here on are a
        torn tail."""
        head = fh.read(_FRAME_PREFIX_LEN)
        length_bytes, digest_bytes = head[:8], head[9:73]
        if len(head) < _FRAME_PREFIX_LEN or not length_bytes.isdigit() \
                or head[8:9] != b" " or head[73:74] != b" ":
            return None, 0
        length = int(length_bytes)
        payload = fh.read(length + 1)  # payload + newline
        if payload[length:] != b"\n":  # cut short, or not a frame's end
            return None, 0
        payload = payload[:length]
        if hashlib.sha256(payload).hexdigest().encode() != digest_bytes:
            return None, 0
        try:
            record = JournalRecord.from_payload(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            # Digest-valid but unparsable is splice damage, not a tear —
            # a frame we wrote whole always round-trips.
            raise JournalError(
                f"journal frame at byte {offset} has a valid digest but "
                f"an unparsable payload"
            ) from None
        return record, _FRAME_PREFIX_LEN + length + 1

    # -- Appending -------------------------------------------------------

    def replay(self, visit) -> tuple[int, int]:
        """Pass every intact record to ``visit`` as it is verified
        (retaining none), repair any torn tail, and leave the append
        cursor after the last good record; returns ``(records replayed,
        torn-tail bytes trimmed)``.

        The recovery entry point: :meth:`repro.gateway.Gateway.recover`
        applies each record as it is read, then appends to the same file
        without a second scan — ``seq`` continues across incarnations.
        """
        replayed, truncated_bytes = self._walk(self.path, visit, True)
        self._next_seq = replayed + 1
        self._positioned = True
        return replayed, truncated_bytes

    def _ensure_open(self) -> None:
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        if self._fh is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self._positioned:
            self.replay(lambda record: None)
        self._fh = open(self.path, "ab")
        if self._fh.tell() == 0:  # new, empty, or torn inside the header
            self._fh.write(_HEADER)
            self._flush()

    def append(self, kind: str, **data) -> JournalRecord:
        """Durably write one record, then fire ``on_append``.

        The record is flushed (and fsynced when configured) *before*
        the hook runs and before the caller's state mutation — the
        journal is the commit point.
        """
        self._ensure_open()
        record = JournalRecord(seq=self._next_seq, kind=kind, data=data)
        self._fh.write(_frame(record.to_payload()))
        self._flush()
        self._next_seq += 1
        self.appended += 1
        if self.on_append is not None:
            self.on_append(record)
        return record

    def _flush(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def close(self) -> None:
        if self._fh is not None:
            self._flush()
            self._fh.close()
            self._fh = None
        self._closed = True

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
