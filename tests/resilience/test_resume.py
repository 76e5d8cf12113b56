"""The headline guarantee: a killed-and-resumed run is bit-identical.

These tests kill a serial :class:`Simulation` mid-run with an injected
``MID_BATCH_KILL`` (a full generation transported, nothing recorded — the
worst checkpoint loss), then resume a **fresh** ``Simulation`` from the
latest checkpoint and demand exact ``==`` equality of the per-batch
k-estimates, entropy trace, and work counters against an uninterrupted run.
No tolerance: the RNG-by-global-id design makes the resumed trajectory the
same bit pattern, and any drift here is a bug.
"""

import numpy as np
import pytest

from repro.errors import CheckpointError, ExecutionError
from repro.resilience import (
    FaultKind,
    FaultPlan,
    SimulatedCrash,
    latest_checkpoint,
)
from repro.transport import Settings, Simulation

BASE = dict(
    n_particles=80, n_inactive=1, n_active=4, pincell=True, seed=11
)


def crash_and_resume(library, tmp_path, kill_batch, **overrides):
    """Run to a crash at ``kill_batch``, then resume from latest checkpoint."""
    settings = Settings(
        **{**BASE, **overrides},
        checkpoint_every=1,
        checkpoint_dir=str(tmp_path),
    )
    plan = FaultPlan.single(FaultKind.MID_BATCH_KILL, batch=kill_batch)
    with pytest.raises(SimulatedCrash):
        Simulation(library, settings).run(fault_plan=plan)
    ckpt = latest_checkpoint(tmp_path)
    assert ckpt is not None
    # A fresh Simulation models the restarted process: no carried state.
    return Simulation(library, settings).run(resume_from=ckpt), ckpt


class TestBitIdenticalResume:
    @pytest.mark.parametrize("mode", ["event", "history"])
    def test_resumed_equals_uninterrupted(self, small_library, tmp_path, mode):
        reference = Simulation(
            small_library, Settings(**BASE, mode=mode)
        ).run()
        resumed, ckpt = crash_and_resume(
            small_library, tmp_path, kill_batch=3, mode=mode
        )
        assert ckpt.name == "ckpt-000003.rpk"
        # Exact equality — bit-identical, not merely close.
        assert resumed.statistics.k_collision == reference.statistics.k_collision
        assert (
            resumed.statistics.k_absorption
            == reference.statistics.k_absorption
        )
        assert resumed.statistics.k_track == reference.statistics.k_track
        assert resumed.statistics.entropy == reference.statistics.entropy
        assert resumed.counters.as_dict() == reference.counters.as_dict()

    def test_history_vs_event_after_resume(self, small_library, tmp_path):
        """The history/event contract holds through a crash + resume."""
        rh, _ = crash_and_resume(
            small_library, tmp_path / "history", kill_batch=2, mode="history"
        )
        re_, _ = crash_and_resume(
            small_library, tmp_path / "event", kill_batch=2, mode="event"
        )
        assert re_.statistics.k_collision == pytest.approx(
            rh.statistics.k_collision, rel=1e-12
        )
        assert re_.statistics.k_absorption == pytest.approx(
            rh.statistics.k_absorption, rel=1e-12
        )
        assert re_.statistics.entropy == pytest.approx(
            rh.statistics.entropy, rel=1e-12
        )
        assert re_.counters.as_dict() == rh.counters.as_dict()

    def test_kill_at_first_checkpointable_batch(self, small_library, tmp_path):
        reference = Simulation(
            small_library, Settings(**BASE, mode="event")
        ).run()
        resumed, ckpt = crash_and_resume(
            small_library, tmp_path, kill_batch=1, mode="event"
        )
        assert ckpt.name == "ckpt-000001.rpk"
        assert resumed.statistics.k_collision == reference.statistics.k_collision
        assert resumed.statistics.entropy == reference.statistics.entropy

    def test_power_tally_survives_resume(self, small_library, tmp_path):
        reference = Simulation(
            small_library, Settings(**BASE, mode="event", tally_power=True)
        ).run()
        resumed, _ = crash_and_resume(
            small_library, tmp_path, kill_batch=3, mode="event",
            tally_power=True,
        )
        np.testing.assert_array_equal(
            resumed.power.mean, reference.power.mean
        )
        assert resumed.power.n_batches == reference.power.n_batches

    def test_resumed_profile_merges_segments(self, small_library, tmp_path):
        resumed, _ = crash_and_resume(
            small_library, tmp_path, kill_batch=3, mode="event"
        )
        routines = resumed.profile.routines
        # 5 recorded generations across both segments (the crashed batch's
        # transport died with the first process and is not profiled).
        assert routines["transport_generation"].calls == 5
        assert routines["checkpoint_restore"].calls == 1
        assert routines["checkpoint_write"].calls >= 3

    def test_resumed_wall_time_includes_prior_segment(
        self, small_library, tmp_path
    ):
        resumed, ckpt = crash_and_resume(
            small_library, tmp_path, kill_batch=3, mode="event"
        )
        from repro.resilience import load_checkpoint

        prior = load_checkpoint(ckpt).elapsed_seconds
        assert prior > 0.0
        assert resumed.wall_time > prior


class TestResumeGuards:
    def test_wrong_settings_refused(self, small_library, tmp_path):
        settings = Settings(
            **BASE, mode="event",
            checkpoint_every=1, checkpoint_dir=str(tmp_path),
        )
        plan = FaultPlan.single(FaultKind.MID_BATCH_KILL, batch=2)
        with pytest.raises(SimulatedCrash):
            Simulation(small_library, settings).run(fault_plan=plan)
        other = Settings(**{**BASE, "seed": 99}, mode="event")
        with pytest.raises(CheckpointError, match="different settings"):
            Simulation(small_library, other).run(
                resume_from=latest_checkpoint(tmp_path)
            )

    def test_checkpoint_settings_validated(self):
        with pytest.raises(ExecutionError):
            Settings(checkpoint_every=-1)
        with pytest.raises(ExecutionError):
            Settings(checkpoint_every=2)  # no directory given

    def test_cadence_controls_file_count(self, small_library, tmp_path):
        settings = Settings(
            **BASE, mode="event",
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        Simulation(small_library, settings).run()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-000002.rpk", "ckpt-000004.rpk"]
