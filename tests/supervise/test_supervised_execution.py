"""Graceful degradation acceptance: eviction mid-run stays on-contract.

The central claim: kill a rank at batch *k* through the deterministic
fault plan and the supervised distributed run completes — the victim's
global-id slice is redistributed across survivors and subsequent batches
split over the surviving topology — with the bank-derived entropy trace
and work counters **bit-identical** to the serial run (RNG streams are
keyed by global particle id alone; the canonical ``(parent, seq)`` bank
order is partition-invariant).  Tally floats carry the repo-wide
summation-order tolerance (rel 1e-12), since per-rank partial sums merge
in a different association.
"""

import numpy as np
import pytest

from repro.cluster.distributed import DistributedSimulation
from repro.errors import DeadlineExceededError, DegradedRunError
from repro.resilience import FaultKind, FaultPlan
from repro.supervise import SupervisionPolicy, Supervisor
from repro.transport import Settings, Simulation

from .. import contract
from ..contract import assert_bitwise, assert_on_contract

#: Straggler eviction off (wall-clock noise on tiny slices must not evict);
#: these tests exercise *crash* eviction, which is deterministic.
LENIENT = SupervisionPolicy(straggler_factor=1.0e9)


def settings(backend="event"):
    """61 particles: every split of it (3 ranks, then 2) is uneven."""
    return Settings(
        n_particles=61, n_inactive=1, n_active=2, pincell=True,
        mode=backend, seed=17,
    )


def run_ranks(library, n_ranks, *, backend="event", **kwargs):
    return contract.run_ranks(library, settings(backend), n_ranks, **kwargs)


class TestSymmetricEviction:
    """The acceptance test: rank 1 of 3 dies at batch 1, mid-run."""

    @pytest.mark.parametrize("backend", ["history", "event"])
    def test_degraded_run_bit_identical_to_fault_free(
        self, small_library, backend
    ):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=1)
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        degraded = run_ranks(
            small_library, 3, backend=backend,
            supervisor=sup, fault_plan=plan,
        )
        serial = Simulation(small_library, settings(backend)).run()
        assert_on_contract(serial, degraded)
        assert degraded[1].surviving_ranks == 2

    def test_eviction_is_recorded_and_topology_shrinks(self, small_library):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=1)
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        _, dist = run_ranks(
            small_library, 3, supervisor=sup, fault_plan=plan
        )
        assert sup.alive == [0, 2]
        assert sup.evicted == [1]
        # The result reports what the last batch's ranks ran.
        assert dist.per_rank_particles == [31, 0, 30]
        report = sup.report()
        assert report["batches"] == 3
        assert report["events"] == [
            {"batch": 1, "rank": 1, "action": "evict", "reason": "crash"}
        ]
        assert report["health"][1]["status"] == "dead"
        # Ranks 0 and 2 have observations for every batch they survived.
        assert report["health"][0]["batches"] == 3
        assert report["health"][2]["batches"] == 3

    def test_supervision_without_faults_changes_nothing(self, small_library):
        """A supervised fault-free run is the fault-free run: same split,
        same merge order, bit-identical output."""
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        supervised = run_ranks(small_library, 3, supervisor=sup)
        plain = run_ranks(small_library, 3)
        assert_bitwise(plain, supervised)
        assert sup.evicted == []
        assert sup.report()["batches"] == 3

    def test_crash_below_rank_floor_raises_degraded(self, small_library):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=0, rank=0)
        sup = Supervisor(
            n_ranks=2,
            policy=SupervisionPolicy(
                straggler_factor=1.0e9, min_ranks=2
            ),
        )
        with pytest.raises(DegradedRunError, match="policy floor"):
            run_ranks(small_library, 2, supervisor=sup, fault_plan=plan)


class TestSimulationHook:
    BASE = dict(n_particles=32, n_inactive=0, n_active=3, pincell=True,
                seed=11, mode="event")

    def test_on_batch_observes_every_batch(self, small_library):
        sup = Supervisor(n_ranks=1, policy=LENIENT)
        observed = Simulation(small_library, Settings(**self.BASE)).run(
            on_batch=sup.batch_callback()
        )
        plain = Simulation(small_library, Settings(**self.BASE)).run()
        assert sup.report()["batches"] == 3
        assert sup.monitor.rate(0) > 0
        # The observer is passive: trajectories are untouched.
        assert observed.statistics.k_collision == plain.statistics.k_collision
        assert observed.counters.as_dict() == plain.counters.as_dict()

    def test_batch_deadline_aborts_with_typed_error(self, small_library):
        sup = Supervisor(
            n_ranks=1,
            policy=SupervisionPolicy(batch_deadline_s=1.0e-9),
        )
        with pytest.raises(DeadlineExceededError) as err:
            Simulation(small_library, Settings(**self.BASE)).run(
                on_batch=sup.batch_callback()
            )
        assert err.value.deadline_s == 1.0e-9
        assert err.value.elapsed_s > 0


class TestDistributedSupervision:
    SETTINGS = Settings(
        n_particles=90, n_inactive=1, n_active=2, pincell=True,
        mode="event", seed=17,
    )

    def test_supervised_crash_recovery_matches_serial(self, small_library):
        serial = Simulation(small_library, self.SETTINGS).run()
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=1)
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        dist = DistributedSimulation(
            small_library, self.SETTINGS, 3,
            fault_plan=plan, supervisor=sup,
        ).run()
        np.testing.assert_allclose(
            dist.statistics.k_collision,
            serial.statistics.k_collision,
            rtol=1e-12,
        )
        assert dist.failed_ranks == [1]
        assert dist.surviving_ranks == 2
        assert sup.evicted == [1]
        assert sup.retries == 1
        report = sup.report()
        assert report["events"][0]["reason"] == "crash"
        assert report["events"][0]["batch"] == 1

    def test_batch_deadline_aborts_with_typed_error(self, small_library):
        """A batch over ``batch_deadline_s`` fails typed instead of the
        barrier waiting on it."""
        sup = Supervisor(
            n_ranks=3,
            policy=SupervisionPolicy(
                straggler_factor=1.0e9, batch_deadline_s=1.0e-6
            ),
        )
        with pytest.raises(DeadlineExceededError) as err:
            DistributedSimulation(
                small_library, self.SETTINGS, 3, supervisor=sup
            ).run()
        assert err.value.deadline_s == 1.0e-6
        assert err.value.elapsed_s > 1.0e-6
        assert "distributed batch 0" in str(err.value)

    def test_comm_budget_exhaustion_is_typed(self, small_library):
        """A run whose modelled communication exceeds its allowance fails
        at the collective that crossed the line, not with a hang."""
        sup = Supervisor(
            n_ranks=3,
            policy=SupervisionPolicy(
                straggler_factor=1.0e9, comm_budget_s=1.0e-9
            ),
        )
        with pytest.raises(DeadlineExceededError) as err:
            DistributedSimulation(
                small_library, self.SETTINGS, 3, supervisor=sup
            ).run()
        assert "communication budget" in str(err.value)
        assert sup.comm_budget.exhausted

    def test_generous_budget_charges_but_passes(self, small_library):
        sup = Supervisor(
            n_ranks=2,
            policy=SupervisionPolicy(
                straggler_factor=1.0e9, comm_budget_s=10.0
            ),
        )
        dist = DistributedSimulation(
            small_library, self.SETTINGS, 2, supervisor=sup
        ).run()
        assert 0 < sup.comm_budget.spent < 10.0
        assert sup.comm_budget.spent == pytest.approx(dist.comm_time)
