"""Work-stealing rebalancer: plan unit tests + on-contract distributed runs.

The acceptance claims (ISSUE 9): the plan is a pure function of
``(n, alive, rates)``; with equal rates the rebalanced run is *fully*
bitwise identical to the static run; with skewed rates the rebalanced
run's banks and work counters stay bit-identical to the serial run
(tallies to the repo's rel 1e-12 summation-order tolerance), because
every stolen slice keeps its global particle ids; and a mid-run 4x rate
shift is reflected in the assignment within two batches.
"""

import pytest

from repro.errors import ExecutionError
from repro.execution import WorkStealingRebalancer
from repro.execution.loadbalance import equal_split, fleet_split
from repro.supervise import SupervisionPolicy, Supervisor
from repro.transport import Settings, Simulation

from .. import contract
from ..contract import assert_bitwise, assert_on_contract

#: Straggler eviction off: these tests exercise rebalancing, not eviction,
#: and wall-clock noise on tiny slices must not evict anyone.
LENIENT = SupervisionPolicy(straggler_factor=1.0e9)


def _covered(plan):
    ids = []
    for _, sl in plan:
        ids.extend(range(sl.start, sl.stop))
    return ids


class TestPlan:
    def test_covers_exactly_once_in_global_order(self):
        plan = WorkStealingRebalancer().plan(
            0, 1000, [0, 1, 2], [1.0, 1.0, 4.0]
        )
        assert _covered(plan) == list(range(1000))
        starts = [sl.start for _, sl in plan]
        assert starts == sorted(starts)

    def test_counts_match_fleet_split_targets(self):
        rates = [1.0, 1.0, 2.0]
        plan = WorkStealingRebalancer().plan(0, 100, [0, 1, 2], rates)
        counts = [0, 0, 0]
        for rank, sl in plan:
            counts[rank] += sl.stop - sl.start
        assert counts == fleet_split(100, rates)

    def test_no_rates_runs_equal(self):
        """First batch (no measurements yet): the static equal split."""
        rebal = WorkStealingRebalancer()
        plan = rebal.plan(0, 100, [0, 1, 2], None)
        assert [sl.stop - sl.start for _, sl in plan] == equal_split(100, 3)
        assert rebal.events == []

    def test_equal_rates_are_a_noop(self):
        rebal = WorkStealingRebalancer()
        plan = rebal.plan(0, 99, [0, 1, 2], [7.0, 7.0, 7.0])
        assert [sl.stop - sl.start for _, sl in plan] == equal_split(99, 3)
        assert rebal.events == []

    def test_below_min_move_fraction_is_a_noop(self):
        """Sub-threshold imbalance is barrier noise — leave the split."""
        rebal = WorkStealingRebalancer(min_move_fraction=0.10)
        plan = rebal.plan(0, 1000, [0, 1], [1.0, 1.05])
        assert [sl.stop - sl.start for _, sl in plan] == [500, 500]
        assert rebal.events == []

    def test_donors_release_tails_receivers_absorb(self):
        """Slow ranks keep the *head* of their equal slice; only tails
        move, so most particles never change rank."""
        rebal = WorkStealingRebalancer()
        plan = rebal.plan(3, 100, [0, 1, 2], [1.0, 1.0, 2.0])
        by_rank = {}
        for rank, sl in plan:
            by_rank.setdefault(rank, []).append((sl.start, sl.stop))
        # Equal base was [34, 33, 33]; targets [25, 25, 50].
        assert by_rank[0][0] == (0, 25)
        assert by_rank[1][0] == (34, 59)
        assert all(ev.batch == 3 for ev in rebal.events)
        assert {ev.receiver for ev in rebal.events} == {2}
        assert {ev.donor for ev in rebal.events} == {0, 1}
        moved = sum(ev.count for ev in rebal.events)
        assert moved == (34 - 25) + (33 - 25)

    def test_plan_is_deterministic_and_stateless(self):
        a = WorkStealingRebalancer().plan(0, 12345, [0, 2, 5], [3.0, 1.0, 2.0])
        b = WorkStealingRebalancer().plan(7, 12345, [0, 2, 5], [3.0, 1.0, 2.0])
        assert a == b

    def test_alive_subset_uses_alive_ranks_only(self):
        plan = WorkStealingRebalancer().plan(0, 90, [1, 3], [1.0, 2.0])
        assert {rank for rank, _ in plan} <= {1, 3}
        assert _covered(plan) == list(range(90))

    def test_no_alive_ranks_rejected(self):
        with pytest.raises(ExecutionError):
            WorkStealingRebalancer().plan(0, 10, [], [1.0])

    def test_summary_aggregates_steal_traffic(self):
        rebal = WorkStealingRebalancer()
        rebal.plan(0, 100, [0, 1, 2], [1.0, 1.0, 2.0])
        rebal.plan(1, 100, [0, 1, 2], [1.0, 1.0, 2.0])
        s = rebal.summary()
        assert s["batches"] == 2
        assert s["steals"] == len(rebal.events)
        assert s["particles_moved"] == sum(ev.count for ev in rebal.events)
        assert set(s["pairs"]) == {"0->2", "1->2"}


# -- Driver integration -------------------------------------------------------

SETTINGS = Settings(
    n_particles=90, n_inactive=1, n_active=3, pincell=True,
    mode="event", seed=17,
)

@pytest.fixture(scope="module")
def serial(small_library):
    return Simulation(small_library, SETTINGS).run()


def run_ranks(library, rebalancer=None, supervisor=None):
    """A supervised 3-rank run of ``SETTINGS``."""
    if supervisor is None:
        supervisor = Supervisor(n_ranks=3, policy=LENIENT)
    return contract.run_ranks(
        library, SETTINGS, 3, supervisor=supervisor, rebalancer=rebalancer
    )


class TestSupervisedRebalancing:
    def test_skewed_run_on_contract_with_serial(self, small_library, serial):
        """Rebalanced run (rank 2 measured 4x faster) vs the serial run:
        counters and entropy bit-identical, k traces 1e-12 — stolen
        slices keep their global ids."""
        rates = {0: 100.0, 1: 100.0, 2: 400.0}
        rebal = WorkStealingRebalancer(rate_source=rates.get)
        rebalanced = run_ranks(small_library, rebal)
        assert_on_contract(serial, rebalanced)
        assert rebal.summary()["particles_moved"] > 0
        assert {ev.receiver for ev in rebal.events} == {2}
        # The result reports what the ranks ran, not the equal split.
        assert rebalanced[1].per_rank_particles == fleet_split(
            90, [100.0, 100.0, 400.0]
        )

    def test_skewed_run_on_contract_with_static_final_assignment(
        self, small_library
    ):
        """The acceptance criterion verbatim: the work-stealing run vs a
        static run pinned to the same final assignment (a second
        rebalancer fed the same fixed rates plans identically, so the
        'static' reference executes exactly the converged assignment)."""
        rates = {0: 100.0, 1: 100.0, 2: 400.0}
        ws = WorkStealingRebalancer(rate_source=rates.get)
        rebalanced = run_ranks(small_library, ws)
        static = WorkStealingRebalancer(rate_source=rates.get)
        pinned = run_ranks(small_library, static)
        # Same plan both times, and on this static-rate run the contract
        # is exact equality, not just tolerance.
        assert ws.events == static.events
        assert_bitwise(pinned, rebalanced)

    def test_equal_rates_fully_bitwise_vs_static_scheduler(
        self, small_library
    ):
        """Equal measured rates: the plan *is* the equal split, so the
        rebalanced run is the run without a rebalancer, bit for bit
        (tallies included — same partition, same merge order)."""
        rebal = WorkStealingRebalancer(rate_source=lambda rank: 250.0)
        rebalanced = run_ranks(small_library, rebal)
        static = run_ranks(small_library)
        assert rebal.events == []
        assert rebalanced[1].per_rank_particles == equal_split(90, 3)
        assert_bitwise(static, rebalanced)

    def test_monitor_rates_drive_the_plan_without_rate_source(
        self, small_library, serial
    ):
        """Without a rate_source the plan reads the supervisor's health
        monitor EMA; the run completes on-contract with serial."""
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        rebalanced = run_ranks(
            small_library, WorkStealingRebalancer(), supervisor=sup
        )
        assert_on_contract(serial, rebalanced)
        assert sup.report()["batches"] == 4


class TestMidRunRateShift:
    """Satellite 3: a device throttles 4x mid-run; the measured-rate
    feed (the AdaptiveAlphaController pathway generalized N-way) moves
    the assignment within two batches, and the run stays on-contract."""

    @staticmethod
    def shifting(supervisor):
        """Rank 0 throttles 4x from batch 2 on (the supervisor's batch
        counter advances before the plan is asked for)."""
        return WorkStealingRebalancer(
            rate_source=lambda rank: (
                100.0 if rank == 0 and supervisor.batch >= 2 else 400.0
            )
        )

    def test_straggler_slice_reassigned_within_two_batches(
        self, small_library, serial
    ):
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        rebal = self.shifting(sup)
        rebalanced = run_ranks(small_library, rebal, supervisor=sup)
        # Batches 0-1: balanced, no steals.  Batch 2 (first batch at the
        # new rates, i.e. within one barrier of the shift): rank 0
        # donates; it never receives.
        batches_with_steals = sorted({ev.batch for ev in rebal.events})
        assert batches_with_steals == [2, 3]
        assert all(
            ev.donor == 0 for ev in rebal.events if ev.batch == 2
        )
        assert all(ev.receiver != 0 for ev in rebal.events)
        # And the physics is untouched: on-contract with serial.
        assert_on_contract(serial, rebalanced)

    def test_shift_changes_assignment_not_results(
        self, small_library, serial
    ):
        """The same run with and without the shift transports identical
        histories (the serial run's) — partitioning is invisible to the
        physics."""
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        shifted = run_ranks(small_library, self.shifting(sup), supervisor=sup)
        steady = run_ranks(
            small_library,
            WorkStealingRebalancer(rate_source=lambda rank: 400.0),
        )
        assert_on_contract(serial, shifted)
        assert_on_contract(serial, steady)
