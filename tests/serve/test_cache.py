"""LibraryCache: build-once semantics, atomic publish, corruption recovery."""

import hashlib
import multiprocessing as mp
from pathlib import Path

import numpy as np
import pytest

from repro.data import LibraryConfig, library_fingerprint
from repro.durable import write_sealed
from repro.errors import ServeError
from repro.serve import LibraryCache

TINY = LibraryConfig.tiny()


class TestGetOrBuild:
    def test_miss_builds_then_hit_loads(self, tmp_path):
        cache = LibraryCache(tmp_path)
        lib1, first = cache.get_or_build("hm-small", TINY)
        assert first.source == "built"
        assert first.build_seconds > 0
        lib2, second = cache.get_or_build("hm-small", TINY)
        assert second.source == "disk-cache"
        assert second.build_seconds == 0.0
        assert lib2.names == lib1.names
        np.testing.assert_array_equal(lib2["U238"].xs, lib1["U238"].xs)

    def test_fingerprint_keys_distinguish_configs(self, tmp_path):
        cache = LibraryCache(tmp_path)
        cache.get_or_build("hm-small", TINY)
        _, other = cache.get_or_build("hm-small", TINY.with_seed(9))
        assert other.source == "built"
        assert library_fingerprint("hm-small", TINY) in cache
        assert library_fingerprint("hm-small", TINY.with_seed(9)) in cache

    def test_corrupt_cache_file_is_rebuilt(self, tmp_path):
        cache = LibraryCache(tmp_path)
        _, first = cache.get_or_build("hm-small", TINY)
        path = cache.path_for(first.fingerprint)
        path.write_bytes(b"not a real npz")
        lib, outcome = cache.get_or_build("hm-small", TINY)
        assert outcome.source == "built"
        assert len(lib) == 43

    def test_no_lockfile_left_behind(self, tmp_path):
        cache = LibraryCache(tmp_path)
        cache.get_or_build("hm-small", TINY)
        assert not list(tmp_path.glob("*.lock"))
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_bad_timeout_rejected(self, tmp_path):
        with pytest.raises(ServeError):
            LibraryCache(tmp_path, build_timeout_s=0)


class TestDigestVerification:
    """Every load verifies the entry's sealed SHA-256 trailer."""

    def warm(self, tmp_path):
        cache = LibraryCache(tmp_path)
        _, outcome = cache.get_or_build("hm-small", TINY)
        return cache, cache.path_for(outcome.fingerprint)

    def test_publish_writes_a_matching_seal(self, tmp_path):
        cache, path = self.warm(tmp_path)
        data = path.read_bytes()
        assert data[-32:] == hashlib.sha256(data[:-32]).digest()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_mismatched_seal_quarantines_and_rebuilds(self, tmp_path):
        cache, path = self.warm(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-32] + b"\0" * 32)
        lib, outcome = cache.get_or_build("hm-small", TINY)
        assert outcome.source == "built"
        assert cache.corrupt_entries == 1
        assert len(lib) == 43
        # Quarantined bytes kept for forensics, out of the namespace.
        assert path.with_suffix(".corrupt").exists()
        # The rebuild republished a now-consistent entry.
        _, again = cache.get_or_build("hm-small", TINY)
        assert again.source == "disk-cache"
        assert cache.corrupt_entries == 1
        assert path.read_bytes() == data

    def test_bit_rot_in_the_npz_is_caught(self, tmp_path):
        """The npz may still unpickle after a flipped byte — only the
        digest catches silent rot."""
        cache, path = self.warm(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        _, outcome = cache.get_or_build("hm-small", TINY)
        assert outcome.source == "built"
        assert cache.corrupt_entries == 1

    def test_parent_format_entry_is_quarantined_and_rebuilt(self, tmp_path):
        """A bare npz beside a ``.sha256`` sidecar (the format before the
        seal) is quarantined once; the rebuild is the same library."""
        cache, path = self.warm(tmp_path)
        sealed = path.read_bytes()
        npz = sealed[:-32]
        path.write_bytes(npz)
        sidecar = path.with_suffix(".sha256")
        sidecar.write_text(hashlib.sha256(npz).hexdigest() + "\n")
        _, outcome = LibraryCache(tmp_path).get_or_build("hm-small", TINY)
        assert outcome.source == "built"
        assert path.with_suffix(".corrupt").read_bytes() == npz
        assert path.read_bytes() == sealed
        _, again = cache.get_or_build("hm-small", TINY)
        assert again.source == "disk-cache"

    def test_unloadable_corruption_counts_too(self, tmp_path):
        """Garbage behind a valid seal fails the parse instead: the same
        typed event in the same counter."""
        cache, path = self.warm(tmp_path)
        write_sealed(path, b"not a real npz")
        _, outcome = cache.get_or_build("hm-small", TINY)
        assert outcome.source == "built"
        assert cache.corrupt_entries == 1

    def test_schema_1_entry_is_quarantined_and_rebuilt(
        self, tmp_path, write_schema1_library
    ):
        """An entry an older version published verifies but no longer
        parses: the typed ``DataError`` is a quarantine + rebuild."""
        cache, path = self.warm(tmp_path)
        write_schema1_library(path)
        write_sealed(path, path.read_bytes())
        lib, outcome = cache.get_or_build("hm-small", TINY)
        assert outcome.source == "built"
        assert cache.corrupt_entries == 1
        assert len(lib) == 43
        assert path.with_suffix(".corrupt").exists()

    def test_a_disk_hit_reads_the_npz_once(self, tmp_path, monkeypatch):
        """The bytes parsed are the bytes verified: one read of the file,
        and numpy is handed those bytes, never the path."""
        cache, path = self.warm(tmp_path)
        reads = []
        read_bytes, np_load = Path.read_bytes, np.load
        monkeypatch.setattr(
            Path, "read_bytes",
            lambda self: reads.append(self) or read_bytes(self),
        )

        def load(file, *args, **kwargs):
            if isinstance(file, (str, Path)):
                reads.append(Path(file))
            return np_load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", load)
        _, outcome = cache.get_or_build("hm-small", TINY)
        assert outcome.source == "disk-cache"
        assert reads == [path]

    def test_stats_export(self, tmp_path):
        cache, path = self.warm(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["corrupt_entries"] == 0
        assert stats["directory"] == str(tmp_path)


def _race_worker(directory, barrier, out_q):
    cache = LibraryCache(directory)
    barrier.wait()
    _, outcome = cache.get_or_build("hm-small", LibraryConfig.tiny())
    out_q.put(outcome.source)


class TestCrossProcess:
    def test_concurrent_processes_build_exactly_once(self, tmp_path):
        """Two processes racing on a cold cache: one builds, one loads."""
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        barrier = ctx.Barrier(2)
        out_q = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(str(tmp_path), barrier, out_q))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        sources = sorted(out_q.get(timeout=60) for _ in procs)
        for p in procs:
            p.join(timeout=10)
        assert sources == ["built", "disk-cache"]
