"""Tests for recovery policies and the rank-failure recovery path."""

import numpy as np
import pytest

from repro.cluster.distributed import DistributedSimulation
from repro.cluster.simcomm import SimulatedComm
from repro.errors import ClusterError, CommunicationError, ReproError
from repro.resilience import FaultPlan, RetryPolicy, redistribute_slice
from repro.resilience.faults import FaultKind
from repro.transport import Settings, Simulation

SETTINGS = Settings(
    n_particles=90, n_inactive=1, n_active=3, pincell=True,
    mode="event", seed=17,
)


@pytest.fixture(scope="module")
def serial(small_library):
    return Simulation(small_library, SETTINGS).run()


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff_factor=3.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.3)
        assert policy.delay_s(3) == pytest.approx(0.9)
        assert policy.total_backoff_s(3) == pytest.approx(1.3)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_factor=0.5)


class TestRedistributeSlice:
    def test_covers_exactly_once_in_order(self):
        parts = redistribute_slice(slice(30, 60), survivors=[0, 2, 3])
        starts = [sub.start for _, sub in parts]
        assert starts == sorted(starts)
        covered = []
        for _, sub in parts:
            covered.extend(range(sub.start, sub.stop))
        assert covered == list(range(30, 60))

    def test_remainder_goes_to_earlier_survivors(self):
        parts = redistribute_slice(slice(0, 10), survivors=[4, 7, 9])
        sizes = [sub.stop - sub.start for _, sub in parts]
        assert sizes == [4, 3, 3]
        assert [rank for rank, _ in parts] == [4, 7, 9]

    def test_more_survivors_than_particles(self):
        parts = redistribute_slice(slice(5, 7), survivors=[1, 2, 3])
        assert [(r, (s.start, s.stop)) for r, s in parts] == [
            (1, (5, 6)), (2, (6, 7)),
        ]

    def test_empty_slice(self):
        assert redistribute_slice(slice(4, 4), survivors=[0]) == []

    def test_no_survivors_rejected(self):
        with pytest.raises(ClusterError):
            redistribute_slice(slice(0, 10), survivors=[])


class TestWeightedRedistributeSlice:
    """The work-stealing rebalance path: proportional splitting of a
    released slice by rate weight (largest-remainder apportionment)."""

    def test_covers_exactly_once_in_order(self):
        parts = redistribute_slice(
            slice(100, 200), survivors=[0, 1, 2], weights=[1.0, 2.0, 7.0]
        )
        covered = []
        for _, sub in parts:
            covered.extend(range(sub.start, sub.stop))
        assert covered == list(range(100, 200))
        starts = [sub.start for _, sub in parts]
        assert starts == sorted(starts)

    def test_proportional_counts(self):
        parts = redistribute_slice(
            slice(0, 100), survivors=[3, 5], weights=[1.0, 3.0]
        )
        sizes = {rank: sub.stop - sub.start for rank, sub in parts}
        assert sizes == {3: 25, 5: 75}

    def test_largest_remainder_ties_to_earlier_survivor(self):
        # 10 particles at weights [1, 1, 1]: floors 3/3/3, one leftover
        # with equal fractional parts -> earliest survivor.
        parts = redistribute_slice(
            slice(0, 10), survivors=[4, 7, 9], weights=[1.0, 1.0, 1.0]
        )
        sizes = [sub.stop - sub.start for _, sub in parts]
        assert sizes == [4, 3, 3]

    def test_zero_weight_survivor_receives_nothing(self):
        parts = redistribute_slice(
            slice(0, 9), survivors=[0, 1, 2], weights=[2.0, 0.0, 1.0]
        )
        assert {rank for rank, _ in parts} == {0, 2}
        assert sum(sub.stop - sub.start for _, sub in parts) == 9

    def test_unweighted_path_unchanged_by_weighted_extension(self):
        """weights=None keeps the original rank-loss recovery behaviour
        exactly (the bit-identity contract depends on it)."""
        assert redistribute_slice(
            slice(30, 60), survivors=[0, 2, 3]
        ) == redistribute_slice(slice(30, 60), survivors=[0, 2, 3], weights=None)

    def test_validation(self):
        with pytest.raises(ClusterError, match="weights for"):
            redistribute_slice(slice(0, 10), survivors=[0, 1], weights=[1.0])
        with pytest.raises(ClusterError, match="negative"):
            redistribute_slice(
                slice(0, 10), survivors=[0, 1], weights=[1.0, -1.0]
            )
        with pytest.raises(ClusterError, match="positive weight"):
            redistribute_slice(
                slice(0, 10), survivors=[0, 1], weights=[0.0, 0.0]
            )

    def test_exact_sum_over_many_shapes(self):
        for n in (1, 2, 7, 97, 1000):
            for weights in ([0.3, 0.7], [5.0, 1.0, 1.0], [1e-6, 1.0, 1e6]):
                parts = redistribute_slice(
                    slice(11, 11 + n),
                    survivors=list(range(len(weights))),
                    weights=weights,
                )
                assert sum(sub.stop - sub.start for _, sub in parts) == n


class TestRankFailureRecovery:
    """A crashed rank's slice is re-run by survivors — results unchanged.

    The trajectory (fission bank, source sites, entropy) is bit-identical
    to the serial run; the summed k-estimators agree to the repo's
    established bit-equivalence bound (1e-12, reduction grouping only).
    """

    def test_single_crash_matches_serial(self, small_library, serial):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=2, rank=1)
        dist = DistributedSimulation(
            small_library, SETTINGS, 4, fault_plan=plan
        ).run()
        assert dist.failed_ranks == [1]
        assert dist.surviving_ranks == 3
        assert dist.recovery_time > 0.0
        assert dist.statistics.entropy == serial.statistics.entropy
        np.testing.assert_allclose(
            dist.statistics.k_collision, serial.statistics.k_collision,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            dist.statistics.k_absorption, serial.statistics.k_absorption,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            dist.statistics.k_track, serial.statistics.k_track, rtol=1e-12
        )

    def test_two_crashes_still_match(self, small_library, serial):
        plan = FaultPlan(
            events=(
                *FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=0).events,
                *FaultPlan.single(FaultKind.RANK_CRASH, batch=3, rank=3).events,
            )
        )
        dist = DistributedSimulation(
            small_library, SETTINGS, 4, fault_plan=plan
        ).run()
        assert dist.failed_ranks == [0, 3]
        assert dist.surviving_ranks == 2
        assert dist.statistics.entropy == serial.statistics.entropy
        np.testing.assert_allclose(
            dist.statistics.k_collision, serial.statistics.k_collision,
            rtol=1e-12,
        )

    def test_recovery_is_deterministic(self, small_library):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=2, rank=1)
        a = DistributedSimulation(
            small_library, SETTINGS, 4, fault_plan=plan
        ).run()
        b = DistributedSimulation(
            small_library, SETTINGS, 4, fault_plan=plan
        ).run()
        assert a.statistics.k_collision == b.statistics.k_collision
        assert a.recovery_time == b.recovery_time
        assert a.failed_ranks == b.failed_ranks

    def test_crash_of_out_of_range_rank_ignored(self, small_library, serial):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=2, rank=7)
        dist = DistributedSimulation(
            small_library, SETTINGS, 2, fault_plan=plan
        ).run()
        assert dist.failed_ranks == []
        assert dist.surviving_ranks == 2
        np.testing.assert_allclose(
            dist.statistics.k_collision, serial.statistics.k_collision,
            rtol=1e-12,
        )

    def test_last_rank_crash_unrecoverable(self, small_library):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=0)
        with pytest.raises(ClusterError, match="no survivors"):
            DistributedSimulation(
                small_library, SETTINGS, 1, fault_plan=plan
            ).run()


class TestCommunicatorHardening:
    def test_shrink_preserves_time(self):
        comm = SimulatedComm(4)
        comm.allreduce_sum([np.ones(8)] * 4)
        before = comm.comm_time
        assert before > 0.0
        small = comm.shrink(3)
        assert small.n_ranks == 3
        assert small.comm_time == before

    def test_shrink_bounds(self):
        with pytest.raises(CommunicationError):
            SimulatedComm(4).shrink(0)
        with pytest.raises(CommunicationError):
            SimulatedComm(4).shrink(5)

    def test_wrong_buffer_count_typed(self):
        with pytest.raises(CommunicationError, match="rank buffers"):
            SimulatedComm(3).allreduce_sum([np.ones(4)] * 2)

    def test_empty_collective_typed(self):
        with pytest.raises(CommunicationError, match="no rank buffers"):
            SimulatedComm(1).allreduce_sum([])

    def test_shape_mismatch_typed(self):
        with pytest.raises(CommunicationError, match="share a shape"):
            SimulatedComm(2).allreduce_sum([np.ones(4), np.ones(5)])

    def test_non_finite_payload_typed(self):
        with pytest.raises(CommunicationError, match="non-finite"):
            SimulatedComm(2).allreduce_sum([np.ones(4), np.array([1.0, np.nan, 2.0, 3.0])])

    def test_non_numeric_payload_typed(self):
        with pytest.raises(CommunicationError, match="not numeric"):
            SimulatedComm(2).reduce_sum([np.ones(2), np.array(["a", "b"])])

    def test_negative_site_counts_typed(self):
        with pytest.raises(CommunicationError, match="non-negative"):
            SimulatedComm(2).exchange_bank([5, -1])

    def test_wrong_site_count_length_typed(self):
        with pytest.raises(CommunicationError, match="one entry per rank"):
            SimulatedComm(2).exchange_bank([5])
