"""Tests for the checkpoint file format: round trip, integrity, atomicity."""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.durable import write_sealed
from repro.errors import CheckpointError
from repro.profiling.timers import TimerRegistry
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointState,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
    settings_fingerprint,
)
from repro.transport import Settings


def make_state(batches_done=3, power=None) -> CheckpointState:
    rng = np.random.default_rng(5)
    return CheckpointState(
        batches_done=batches_done,
        id_offset=batches_done * 100,
        n_inactive=1,
        fingerprint="f" * 64,
        positions=rng.normal(size=(100, 3)),
        energies=rng.uniform(0.1, 2.0, 100),
        k_collision=[0.9, 1.0, 1.1],
        k_absorption=[0.91, 1.01, 1.11],
        k_track=[0.92, 1.02, 1.12],
        entropy=[3.5, 3.4, 3.45],
        source_rng_state=np.random.default_rng(5).bit_generator.state,
        counters={"lookups": 1234, "collisions": 56},
        elapsed_seconds=7.25,
        profile_json='{"label": "seg", "routines": {}}',
        power=power,
    )


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        state = make_state()
        path = save_checkpoint(state, tmp_path / "c.rpk")
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.positions, state.positions)
        np.testing.assert_array_equal(loaded.energies, state.energies)
        assert loaded.k_collision == state.k_collision
        assert loaded.k_absorption == state.k_absorption
        assert loaded.k_track == state.k_track
        assert loaded.entropy == state.entropy
        assert loaded.batches_done == state.batches_done
        assert loaded.id_offset == state.id_offset
        assert loaded.counters == state.counters
        assert loaded.elapsed_seconds == state.elapsed_seconds
        assert loaded.profile_json == state.profile_json
        assert loaded.version == CHECKPOINT_VERSION

    def test_rng_state_round_trip_restores_generator(self, tmp_path):
        gen = np.random.default_rng(42)
        gen.random(17)  # advance past the seed state
        state = make_state()
        state.source_rng_state = gen.bit_generator.state
        loaded = load_checkpoint(save_checkpoint(state, tmp_path / "c.rpk"))
        restored = np.random.default_rng(0)
        restored.bit_generator.state = loaded.source_rng_state
        np.testing.assert_array_equal(restored.random(8), gen.random(8))

    def test_power_round_trip(self, tmp_path):
        power = {
            "shape": (17, 17),
            "half_width": 10.71,
            "n_batches": 4,
            "sum": np.arange(289.0).reshape(17, 17),
            "sum_sq": np.arange(289.0).reshape(17, 17) ** 2,
        }
        loaded = load_checkpoint(
            save_checkpoint(make_state(power=power), tmp_path / "c.rpk")
        )
        assert loaded.power["shape"] == (17, 17)
        assert loaded.power["n_batches"] == 4
        np.testing.assert_array_equal(loaded.power["sum"], power["sum"])
        np.testing.assert_array_equal(loaded.power["sum_sq"], power["sum_sq"])

    def test_timers_record_write_and_restore(self, tmp_path):
        timers = TimerRegistry("ckpt")
        path = save_checkpoint(make_state(), tmp_path / "c.rpk", timers=timers)
        load_checkpoint(path, timers=timers)
        assert timers.profile.routines["checkpoint_write"].calls == 1
        assert timers.profile.routines["checkpoint_restore"].calls == 1


class TestIntegrity:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.rpk")

    def test_corrupt_payload_rejected(self, tmp_path):
        path = save_checkpoint(make_state(), tmp_path / "c.rpk")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = save_checkpoint(make_state(), tmp_path / "c.rpk")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        """A whole (sealed) file that is not a checkpoint."""
        path = write_sealed(tmp_path / "c.rpk", b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad magic bytes"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = save_checkpoint(make_state(), tmp_path / "c.rpk")
        with pytest.raises(CheckpointError, match="different settings"):
            load_checkpoint(path, expect_fingerprint="0" * 64)

    def test_matching_fingerprint_accepted(self, tmp_path):
        path = save_checkpoint(make_state(), tmp_path / "c.rpk")
        assert load_checkpoint(path, expect_fingerprint="f" * 64).batches_done == 3


class TestAtomicity:
    def test_no_temp_file_left_behind(self, tmp_path):
        save_checkpoint(make_state(), tmp_path / "c.rpk")
        assert [p.name for p in tmp_path.iterdir()] == ["c.rpk"]

    def test_overwrite_is_replace(self, tmp_path):
        path = save_checkpoint(make_state(batches_done=1), tmp_path / "c.rpk")
        save_checkpoint(make_state(batches_done=2), path)
        assert load_checkpoint(path).batches_done == 2


class TestDirectoryLayout:
    def test_checkpoint_path_format(self, tmp_path):
        assert checkpoint_path(tmp_path, 7).name == "ckpt-000007.rpk"

    def test_latest_checkpoint_picks_highest(self, tmp_path):
        for b in (1, 3, 2):
            save_checkpoint(make_state(batches_done=b), checkpoint_path(tmp_path, b))
        assert latest_checkpoint(tmp_path).name == "ckpt-000003.rpk"

    def test_latest_checkpoint_empty(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None


class TestSettingsFingerprint:
    def test_physics_change_changes_fingerprint(self):
        a = settings_fingerprint(Settings(seed=1, pincell=True))
        b = settings_fingerprint(Settings(seed=2, pincell=True))
        assert a != b

    def test_checkpoint_cadence_does_not_change_fingerprint(self, tmp_path):
        a = settings_fingerprint(Settings(pincell=True))
        b = settings_fingerprint(
            Settings(
                pincell=True, checkpoint_every=2, checkpoint_dir=str(tmp_path)
            )
        )
        assert a == b


def sealed_checkpoint(path, meta, payload):
    """A checkpoint file with a valid seal around an arbitrary body."""
    meta_bytes = json.dumps(meta).encode()
    header = b"RPRCKPT\x01" + struct.pack("<Q", len(meta_bytes)) + meta_bytes
    return write_sealed(path, header + payload)


def good_parts(tmp_path):
    """A good checkpoint's meta document and npz payload."""
    body = save_checkpoint(make_state(), tmp_path / "good.rpk").read_bytes()
    (meta_len,) = struct.unpack_from("<Q", body, 8)
    meta = json.loads(body[16 : 16 + meta_len])
    return meta, body[16 + meta_len : -32]


class TestMalformedBody:
    """Bytes that pass the seal are still external input: every parse
    failure behind it is a :class:`CheckpointError`."""

    def test_meta_that_is_not_an_object(self, tmp_path):
        _, payload = good_parts(tmp_path)
        path = sealed_checkpoint(tmp_path / "c.rpk", [], payload)
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_meta_without_power(self, tmp_path):
        meta, payload = good_parts(tmp_path)
        del meta["power"]
        path = sealed_checkpoint(tmp_path / "c.rpk", meta, payload)
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_garbage_payload_after_a_good_meta(self, tmp_path):
        meta, _ = good_parts(tmp_path)
        path = sealed_checkpoint(tmp_path / "c.rpk", meta, b"\x00" * 64)
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_meta_length_past_the_end(self, tmp_path):
        body = b"RPRCKPT\x01" + struct.pack("<Q", 1 << 40) + b"{}"
        path = write_sealed(tmp_path / "c.rpk", body)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        meta, payload = good_parts(tmp_path)
        meta["version"] = CHECKPOINT_VERSION + 1
        path = sealed_checkpoint(tmp_path / "c.rpk", meta, payload)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


FIXTURES = Path(__file__).parent / "fixtures"


def as_doc(value):
    """``value`` as plain JSON types (arrays and tuples become lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_doc(v) for v in value]
    return value


class TestParentFixture:
    """``checkpoint-dc00e04.rpk`` was written by the commit before the
    sealed frame moved into :mod:`repro.durable`; its bytes are that frame."""

    def test_loads_to_its_committed_state(self):
        loaded = load_checkpoint(FIXTURES / "checkpoint-dc00e04.rpk")
        expected = json.loads(
            (FIXTURES / "checkpoint-dc00e04.state.json").read_text()
        )
        assert as_doc(dataclasses.asdict(loaded)) == expected

    def test_resaving_writes_the_same_bytes(self, tmp_path):
        fixture = FIXTURES / "checkpoint-dc00e04.rpk"
        path = save_checkpoint(load_checkpoint(fixture), tmp_path / "c.rpk")
        assert path.read_bytes() == fixture.read_bytes()
