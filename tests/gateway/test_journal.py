"""Write-ahead journal framing: torn tails repair, splices refuse.

The contract under test: a crash can only ever produce a *torn tail*
(a partial final frame), and a torn tail at ANY byte boundary is
detected and truncated — never parsed, never fatal.  Corruption the
framing cannot explain by a crash (sequence gaps, digest-valid garbage)
is a typed :class:`~repro.errors.JournalError`.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JournalError
from repro.gateway.journal import (
    JournalRecord,
    WriteAheadJournal,
    _frame,
)


def write_records(path, n=3):
    journal = WriteAheadJournal(path)
    records = [
        journal.append("accepted", job_id=f"job-{i}", payload=i * "x")
        for i in range(n)
    ]
    journal.close()
    return records


class TestAppendScanRoundTrip:
    def test_empty_and_missing_files_scan_clean(self, tmp_path):
        missing = WriteAheadJournal.scan(tmp_path / "nope.journal")
        assert missing.records == [] and missing.truncated_bytes == 0
        empty = tmp_path / "empty.journal"
        empty.touch()
        assert WriteAheadJournal.scan(empty).records == []

    def test_round_trip_preserves_kind_data_and_seq(self, tmp_path):
        path = tmp_path / "j"
        written = write_records(path, n=5)
        scan = WriteAheadJournal.scan(path)
        assert scan.truncated_bytes == 0
        assert [r.seq for r in scan.records] == [1, 2, 3, 4, 5]
        assert scan.records == written

    def test_sequence_continues_across_incarnations(self, tmp_path):
        path = tmp_path / "j"
        write_records(path, n=3)
        second = WriteAheadJournal(path)
        record = second.append("completed", job_id="late")
        assert record.seq == 4
        second.close()
        scan = WriteAheadJournal.scan(path)
        assert scan.last_seq == 4
        assert scan.by_kind("completed")[0].data["job_id"] == "late"

    def test_replay_visits_in_order_and_places_the_cursor(self, tmp_path):
        path = tmp_path / "j"
        written = write_records(path, n=3)
        with open(path, "ab") as fh:
            fh.write(b"00000099 torn")
        journal = WriteAheadJournal(path)
        seen = []
        assert journal.replay(seen.append) == (3, 13)
        assert seen == written
        assert journal.next_seq == 4
        assert journal.append("routed", job_id="next").seq == 4
        journal.close()
        assert WriteAheadJournal.scan(path).truncated_bytes == 0

    def test_append_after_close_is_typed(self, tmp_path):
        journal = WriteAheadJournal(tmp_path / "j")
        journal.append("accepted", job_id="a")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("accepted", job_id="b")


class TestTornTails:
    def test_torn_at_every_byte_boundary(self, tmp_path):
        """Truncating a valid journal after ANY byte yields exactly the
        whole frames before the cut — the strongest framing statement."""
        path = tmp_path / "j"
        write_records(path, n=3)
        data = path.read_bytes()
        frames = []
        offset = len(b"repro-journal v1\n")
        for record in WriteAheadJournal.scan(path).records:
            offset += len(_frame(record.to_payload()))
            frames.append(offset)
        for cut in range(len(data)):
            torn = tmp_path / "torn"
            torn.write_bytes(data[:cut])
            scan = WriteAheadJournal.scan(torn)
            whole = sum(1 for end in frames if end <= cut)
            assert len(scan.records) == whole, f"cut at byte {cut}"

    def test_repair_truncates_back_to_last_good_frame(self, tmp_path):
        path = tmp_path / "j"
        write_records(path, n=2)
        clean_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"00000099 deadbeef-not-a-real-frame")
        scan = WriteAheadJournal.scan(path, repair=True)
        assert len(scan.records) == 2
        assert scan.truncated_bytes > 0
        assert path.stat().st_size == clean_size
        # Appends continue cleanly after the repair.
        journal = WriteAheadJournal(path)
        assert journal.append("routed", job_id="next").seq == 3
        journal.close()

    def test_append_after_a_tear_inside_the_header_rewrites_it(
        self, tmp_path
    ):
        """A crash inside the very first write leaves part of a header;
        the next incarnation's append must start the file over, not
        write frames under no header (which then read as splice damage).
        """
        path = tmp_path / "j"
        path.write_bytes(b"repro-jou")
        with WriteAheadJournal(path) as journal:
            assert journal.append("accepted", job_id="a").seq == 1
        scan = WriteAheadJournal.scan(path)
        assert [r.data["job_id"] for r in scan.records] == ["a"]

    def test_garbage_after_valid_frames_is_a_tail(self, tmp_path):
        path = tmp_path / "j"
        write_records(path, n=2)
        with open(path, "ab") as fh:
            fh.write(b"\x00\xffbinary junk")
        scan = WriteAheadJournal.scan(path)
        assert len(scan.records) == 2
        assert scan.truncated_bytes == 13

    def test_flipped_payload_byte_stops_the_scan(self, tmp_path):
        path = tmp_path / "j"
        write_records(path, n=1)
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x01  # inside the only frame's payload
        path.write_bytes(bytes(data))
        scan = WriteAheadJournal.scan(path)
        assert scan.records == []
        assert scan.truncated_bytes > 0


class TestStreamedWalkerVerdicts:
    """The frame-by-frame reader against the arithmetic of the format:
    for every way the last frame can be damaged, the record count, the
    exact ``truncated_bytes`` and the repaired file's bytes."""

    HEADER = b"repro-journal v1\n"

    def journal(self, tmp_path, n=3):
        path = tmp_path / "good"
        write_records(path, n=n)
        data = path.read_bytes()
        ends = [len(self.HEADER)]
        for record in WriteAheadJournal.scan(path).records:
            ends.append(ends[-1] + len(_frame(record.to_payload())))
        assert ends[-1] == len(data)
        return data, ends

    def verdict(self, tmp_path, damaged, whole, good_bytes):
        path = tmp_path / "damaged"
        path.write_bytes(damaged)
        scan = WriteAheadJournal.scan(path)
        assert len(scan.records) == whole
        assert scan.truncated_bytes == len(damaged) - good_bytes
        assert path.read_bytes() == damaged  # scan alone never writes
        repaired = WriteAheadJournal.scan(path, repair=True)
        assert repaired.records == scan.records
        assert repaired.truncated_bytes == scan.truncated_bytes
        assert path.read_bytes() == damaged[:good_bytes]
        assert WriteAheadJournal.scan(path).truncated_bytes == 0

    def test_every_cut_of_the_last_frame_and_of_the_header(self, tmp_path):
        data, ends = self.journal(tmp_path)
        for cut in range(ends[-2], len(data)):
            good = ends[-2] if cut > ends[-2] else cut
            self.verdict(tmp_path, data[:cut], 2, good)
        for cut in range(1, len(self.HEADER)):
            self.verdict(tmp_path, data[:cut], 0, 0)

    @pytest.mark.parametrize("damage", [
        "bad length digits", "length separator", "digest separator",
        "missing newline", "digest mismatch", "payload flip",
        "length claims more than the file holds",
    ])
    def test_damage_inside_the_last_frame_is_a_tear(self, tmp_path, damage):
        data, ends = self.journal(tmp_path)
        start = ends[-2]
        frame = bytearray(data[start:])
        if damage == "bad length digits":
            frame[3:4] = b"x"
        elif damage == "length separator":
            frame[8:9] = b"_"
        elif damage == "digest separator":
            frame[73:74] = b"_"
        elif damage == "missing newline":
            frame[-1:] = b" "
        elif damage == "digest mismatch":
            frame[10:11] = b"0" if frame[10:11] != b"0" else b"1"
        elif damage == "payload flip":
            frame[-3] ^= 0x01
        else:
            frame[0:8] = b"99999999"
        self.verdict(tmp_path, data[:start] + bytes(frame), 2, start)

    def test_damage_before_the_last_frame_drops_everything_after_it(
        self, tmp_path
    ):
        data, ends = self.journal(tmp_path)
        damaged = bytearray(data)
        damaged[ends[1] - 3] ^= 0x01  # inside the first frame's payload
        self.verdict(tmp_path, bytes(damaged), 0, ends[0])

    def test_seq_gap_is_raised_at_its_byte_and_never_repaired(self, tmp_path):
        data, ends = self.journal(tmp_path)
        spliced = data[:ends[1]] + data[ends[2]:]  # seq 2 cut out
        path = tmp_path / "spliced"
        path.write_bytes(spliced)
        with pytest.raises(JournalError, match=f"at byte {ends[1]}: "
                                               "expected seq 2, found 3"):
            WriteAheadJournal.scan(path, repair=True)
        assert path.read_bytes() == spliced


class TestFuzz:
    """ROADMAP 7c: any bytes at all scan to records or a typed
    :class:`JournalError` — nothing else escapes the walker."""

    def scan(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "j"
        path.write_bytes(data)
        try:
            scan = WriteAheadJournal.scan(path, repair=True)
        except JournalError:
            return None
        assert path.stat().st_size == len(data) - scan.truncated_bytes
        assert [r.seq for r in scan.records] == list(
            range(1, len(scan.records) + 1)
        )
        return scan

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=400), with_header=st.booleans())
    def test_arbitrary_bytes(self, tmp_path_factory, data, with_header):
        if with_header:
            data = b"repro-journal v1\n" + data
        self.scan(tmp_path_factory, data)

    @settings(max_examples=300, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True),
           byte=st.integers(0, 255), n=st.integers(1, 4))
    def test_single_byte_edits_of_a_good_journal(
        self, tmp_path_factory, where, byte, n
    ):
        path = tmp_path_factory.mktemp("good") / "j"
        written = write_records(path, n=n)
        data = bytearray(path.read_bytes())
        at = int(where * len(data))
        changed = data[at] != byte
        data[at] = byte
        scan = self.scan(tmp_path_factory, bytes(data))
        if scan is not None:
            # Whatever survives is a prefix of what was written.
            assert scan.records == written[: len(scan.records)]
            assert changed or scan.records == written

    @settings(max_examples=200, deadline=None)
    @given(payloads=st.lists(
        st.one_of(
            st.binary(max_size=40),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.sampled_from(["seq", "kind", "x"]),
                                  inner, max_size=3),
                max_leaves=6,
            ).map(lambda doc: json.dumps(doc).encode()),
        ),
        max_size=4,
    ))
    def test_well_framed_frames_around_any_payload(
        self, tmp_path_factory, payloads
    ):
        """A digest-valid frame is trusted past the tear check, so its
        payload reaches the record decoder: any JSON value, any bytes."""
        frames = b"".join(
            b"%08d %s %s\n" % (
                len(p), hashlib.sha256(p).hexdigest().encode(), p
            )
            for p in payloads
        )
        self.scan(tmp_path_factory, b"repro-journal v1\n" + frames)


class TestSpliceDamage:
    def test_wrong_header_is_typed(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"not-a-journal v9\n" + b"x" * 40)
        with pytest.raises(JournalError, match="not a repro-journal"):
            WriteAheadJournal.scan(path)

    def test_sequence_gap_is_typed_not_repaired(self, tmp_path):
        path = tmp_path / "j"
        header = b"repro-journal v1\n"
        frames = b"".join(
            _frame(JournalRecord(seq, "accepted", {}).to_payload())
            for seq in (1, 3)  # seq 2 spliced out
        )
        path.write_bytes(header + frames)
        with pytest.raises(JournalError, match="discontinuity"):
            WriteAheadJournal.scan(path)

    def test_digest_valid_unparsable_payload_is_typed(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(
            b"repro-journal v1\n" + _frame(b"this is not json")
        )
        with pytest.raises(JournalError, match="unparsable"):
            WriteAheadJournal.scan(path)


class TestOnAppendHook:
    def test_hook_fires_after_the_record_is_durable(self, tmp_path):
        path = tmp_path / "j"
        journal = WriteAheadJournal(path)
        seen = []

        def hook(record):
            # The record must already be scannable from disk when the
            # hook (= the chaos kill point) observes it.
            scan = WriteAheadJournal.scan(path)
            seen.append((record.seq, scan.last_seq))

        journal.on_append = hook
        journal.append("accepted", job_id="a")
        journal.append("routed", job_id="a")
        journal.close()
        assert seen == [(1, 1), (2, 2)]

    def test_hook_exception_leaves_the_record_on_disk(self, tmp_path):
        path = tmp_path / "j"
        journal = WriteAheadJournal(path)

        def die(record):
            raise RuntimeError("killed")

        journal.on_append = die
        with pytest.raises(RuntimeError):
            journal.append("accepted", job_id="a")
        journal.close()
        assert WriteAheadJournal.scan(path).last_seq == 1
