"""The sealed frame (``body ‖ SHA-256(body)``) and every reader behind it."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import LibraryConfig
from repro.durable import read_sealed, write_sealed
from repro.errors import CheckpointError, CorruptEntryError
from repro.gateway.results import ResultCache
from repro.resilience.checkpoint import (
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve import LibraryCache
from repro.serve.jobs import JobResult, JobSpec

SPEC = JobSpec(job_id="fuzz", settings={"n_particles": 24, "pincell": True})
TINY = LibraryConfig.tiny()


def seal(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()


class TestFrame:
    def test_file_is_body_then_digest(self, tmp_path):
        path = write_sealed(tmp_path / "f", memoryview(b"payload"))
        assert path.read_bytes() == seal(b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_read_returns_the_body_only(self, tmp_path):
        write_sealed(tmp_path / "f", b"payload")
        assert read_sealed(tmp_path / "f").read() == b"payload"

    def test_empty_body_round_trips(self, tmp_path):
        write_sealed(tmp_path / "f", b"")
        assert read_sealed(tmp_path / "f").read() == b""

    def test_short_file_is_truncated(self, tmp_path):
        (tmp_path / "f").write_bytes(b"x" * 31)
        with pytest.raises(CorruptEntryError, match="truncated"):
            read_sealed(tmp_path / "f")

    def test_flipped_byte_is_a_digest_mismatch(self, tmp_path):
        data = bytearray(seal(b"payload"))
        data[3] ^= 0x01
        (tmp_path / "f").write_bytes(bytes(data))
        with pytest.raises(CorruptEntryError, match="digest mismatch"):
            read_sealed(tmp_path / "f")

    def test_missing_file_is_the_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_sealed(tmp_path / "f")

    def test_neither_side_copies_the_body(self, tmp_path):
        """The writer streams body then digest; the reader's stream
        shares the bytes it read.  A library entry is megabytes, and a
        second copy would show in a worker's peak RSS."""
        body = memoryview(bytes(1 << 20))
        tracemalloc.start()
        try:
            write_sealed(tmp_path / "f", body)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            read_sealed(tmp_path / "f").read(1)
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written < len(body) // 4
        assert read < len(body) * 5 // 4


# -- One property over every reader ------------------------------------------


def read_frame(path):
    try:
        body = read_sealed(path).read()
    except CorruptEntryError:
        return
    assert seal(body) == path.read_bytes()


def read_checkpoint(path):
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def read_result(path):
    cache = ResultCache(path.parent)
    hit = cache.get(SPEC)
    if hit is None:
        assert cache.corrupt_entries == 1
        assert not path.exists() and path.with_suffix(".corrupt").exists()
    else:
        assert cache.corrupt_entries == 0


def read_library(path):
    cache = LibraryCache(path.parent)
    if cache._try_load(path, "fp") is None:
        assert cache.corrupt_entries == 1
        assert not path.exists() and path.with_suffix(".corrupt").exists()
    else:
        assert cache.corrupt_entries == 0


def good_checkpoint(directory):
    rng = np.random.default_rng(3)
    state = CheckpointState(
        batches_done=2, id_offset=200, n_inactive=1, fingerprint="f" * 64,
        positions=rng.normal(size=(4, 3)), energies=rng.uniform(size=4),
        k_collision=[1.0, 1.1], k_absorption=[1.0, 1.1],
        k_track=[1.0, 1.1], entropy=[3.0, 3.1],
        source_rng_state=rng.bit_generator.state, counters={"lookups": 9},
        power={"shape": (2, 1), "half_width": 1.0, "n_batches": 1,
               "sum": np.ones((2, 1)), "sum_sq": np.ones((2, 1))},
    )
    return save_checkpoint(state, directory / "ckpt-000002.rpk")


def good_result(directory):
    result = JobResult(
        job_id="fuzz", status="done", mode="event", n_particles=24,
        n_batches=2, k_effective=1.01, k_collision=[1.0, 1.02],
        settings_fingerprint=SPEC.settings_fingerprint(),
        library_fingerprint=SPEC.library_fingerprint(),
    )
    ResultCache(directory).put(SPEC, result)
    return directory / f"{SPEC.cache_key()}.json"


def good_library(directory):
    cache = LibraryCache(directory)
    _, outcome = cache.get_or_build("hm-small", TINY)
    return cache.path_for(outcome.fingerprint)


READERS = {
    "frame": (lambda d: write_sealed(d / "f", b'{"a": [1, 2.5]}'), read_frame),
    "checkpoint": (good_checkpoint, read_checkpoint),
    "result-cache": (good_result, read_result),
    "library-cache": (good_library, read_library),
}


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """Each reader's file name and the bytes its writer published."""
    files = {}
    for kind, (write, _) in READERS.items():
        path = write(tmp_path_factory.mktemp(kind))
        files[kind] = (path.name, path.read_bytes())
    return files


def edits(blob: bytes):
    """A one-byte overwrite or a truncation of ``blob``, anywhere."""
    overwrite = st.tuples(
        st.integers(0, max(len(blob) - 1, 0)), st.integers(0, 255)
    ).map(lambda e: blob[: e[0]] + bytes([e[1]]) + blob[e[0] + 1:])
    return overwrite | st.integers(0, len(blob)).map(lambda n: blob[:n])


def damaged(good: bytes):
    """Arbitrary bytes; a truncated or edited good file; or an edited
    body re-sealed, so the parser behind the frame sees the damage."""
    return st.one_of(
        st.binary(max_size=200),
        edits(good),
        edits(good[:-32]).map(seal),
    )


class TestFuzz:
    """Any bytes at all are success or the reader's typed failure:
    :class:`CorruptEntryError` from the frame, :class:`CheckpointError`
    from a checkpoint, a counted quarantine and a miss from a cache —
    never another exception."""

    @pytest.mark.parametrize("kind", list(READERS))
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_success_or_typed_failure(
        self, tmp_path_factory, good_files, kind, data
    ):
        name, good = good_files[kind]
        path = tmp_path_factory.mktemp("fuzz") / name
        path.write_bytes(data.draw(damaged(good), label="file"))
        READERS[kind][1](path)
