"""Graceful degradation acceptance: eviction mid-run stays on-contract.

The PR's central claim: kill a symmetric rank at batch *k* through the
deterministic fault plan and the supervised run completes — the victim's
global-id slice is redistributed across survivors and subsequent batches
split over the surviving topology — with fission banks and work counters
**bit-identical** to a fault-free run (RNG streams are keyed by global
particle id alone; the canonical ``(parent, seq)`` bank order is
partition-invariant).  Tally floats carry the repo-wide summation-order
tolerance (rel 1e-12), since per-rank partial sums merge in a different
association.
"""

import numpy as np
import pytest

from repro.cluster.distributed import DistributedSimulation
from repro.data.unionized import UnionizedGrid
from repro.errors import DeadlineExceededError, DegradedRunError
from repro.execution import (
    ExecutionContext,
    NativeScheduler,
    SymmetricScheduler,
)
from repro.resilience import FaultKind, FaultPlan
from repro.supervise import SupervisionPolicy, Supervisor
from repro.transport import Settings, Simulation
from repro.transport.context import TransportContext

#: Straggler eviction off (wall-clock noise on tiny slices must not evict);
#: these tests exercise *crash* eviction, which is deterministic.
LENIENT = SupervisionPolicy(straggler_factor=1.0e9)


@pytest.fixture(scope="module")
def union(small_library):
    return UnionizedGrid(small_library)


def source(n, seed=5):
    rng = np.random.default_rng(seed)
    pos = np.column_stack(
        [
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-150, 150, n),
        ]
    )
    return pos, np.full(n, 1.0)


def run_batches(
    library, union, scheduler, *, n_batches=3, n=48,
    supervisor=None, fault_plan=None, backend="event",
):
    """Run ``n_batches`` generations, each sourced from the previous bank
    (identical inputs across runs as long as banks stay bit-identical)."""
    ctx = TransportContext.create(
        library, pincell=True, union=union, master_seed=7
    )
    ec = ExecutionContext.create(
        transport=ctx, backend=backend,
        supervisor=supervisor, fault_plan=fault_plan,
    )
    tallies = ec.new_tallies()
    pos, en = source(n)
    banks = []
    for _ in range(n_batches):
        bank = scheduler.run_generation(ec, pos, en, tallies, 1.0, 0)
        banks.append(bank)
        assert len(bank) > 0
        pos, en = bank.positions.copy(), bank.energies.copy()
    return ctx, tallies, banks


def assert_on_contract(ref, degraded):
    """Banks + counters exact, tallies to summation-order tolerance."""
    (c1, t1, b1), (c2, t2, b2) = ref, degraded
    assert c1.counters.as_dict() == c2.counters.as_dict()
    for bank1, bank2 in zip(b1, b2):
        assert len(bank1) == len(bank2)
        np.testing.assert_array_equal(bank1.positions, bank2.positions)
        np.testing.assert_array_equal(bank1.energies, bank2.energies)
    assert t2.collision == pytest.approx(t1.collision, rel=1e-12)
    assert t2.absorption == pytest.approx(t1.absorption, rel=1e-12)
    assert t2.track_length == pytest.approx(t1.track_length, rel=1e-12)
    assert t2.n_collisions == t1.n_collisions
    assert t2.n_leaks == t1.n_leaks


class TestSymmetricEviction:
    """The acceptance test: rank 1 of 3 dies at batch 1, mid-run."""

    @pytest.mark.parametrize("backend", ["history", "event"])
    def test_degraded_run_bit_identical_to_fault_free(
        self, small_library, union, backend
    ):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=1)
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        degraded = run_batches(
            small_library, union, SymmetricScheduler(n_ranks=3),
            supervisor=sup, fault_plan=plan, backend=backend,
        )
        # Reference 1: the unsplit serial run of the same batches.
        serial = run_batches(
            small_library, union, NativeScheduler(), backend=backend
        )
        assert_on_contract(serial, degraded)
        # Reference 2: a fault-free run of the surviving topology.
        surviving = run_batches(
            small_library, union, SymmetricScheduler(n_ranks=2),
            backend=backend,
        )
        assert_on_contract(surviving, degraded)

    def test_eviction_is_recorded_and_topology_shrinks(
        self, small_library, union
    ):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=1, rank=1)
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        run_batches(
            small_library, union, SymmetricScheduler(n_ranks=3),
            supervisor=sup, fault_plan=plan,
        )
        assert sup.alive == [0, 2]
        assert sup.evicted == [1]
        report = sup.report()
        assert report["batches"] == 3
        assert report["events"] == [
            {"batch": 1, "rank": 1, "action": "evict", "reason": "crash"}
        ]
        assert report["health"][1]["status"] == "dead"
        # Ranks 0 and 2 have observations for every batch they survived.
        assert report["health"][0]["batches"] == 3
        assert report["health"][2]["batches"] == 3

    def test_supervision_without_faults_changes_nothing(
        self, small_library, union
    ):
        """A supervised fault-free run is the fault-free run: same split,
        same merge order, bit-identical output."""
        sup = Supervisor(n_ranks=3, policy=LENIENT)
        supervised = run_batches(
            small_library, union, SymmetricScheduler(n_ranks=3),
            supervisor=sup,
        )
        plain = run_batches(
            small_library, union, SymmetricScheduler(n_ranks=3)
        )
        assert_on_contract(plain, supervised)
        assert sup.evicted == []
        assert sup.report()["batches"] == 3

    def test_crash_below_rank_floor_raises_degraded(
        self, small_library, union
    ):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=0, rank=0)
        sup = Supervisor(
            n_ranks=2,
            policy=SupervisionPolicy(
                straggler_factor=1.0e9, min_ranks=2
            ),
        )
        with pytest.raises(DegradedRunError, match="policy floor"):
            run_batches(
                small_library, union, SymmetricScheduler(n_ranks=2),
                supervisor=sup, fault_plan=plan,
            )


class TestOneSplitPath:
    """The symmetric scheduler and the cluster driver split a generation
    through the same primitive: same victim, same batch, same executed
    ``(rank, slice)`` units."""

    N, RANKS, BATCHES = 90, 3, 3

    @pytest.fixture
    def executed(self, monkeypatch):
        """Record every ``run_split`` call's executed units, per caller."""
        import repro.cluster.distributed as distributed
        import repro.execution.symmetric as symmetric

        calls = {"symmetric": [], "distributed": []}
        real = symmetric.run_split

        def spy_into(log):
            def spy(*args, **kwargs):
                runs = real(*args, **kwargs)
                log.append(
                    [(r.rank, r.slice.start, r.slice.stop) for r in runs]
                )
                return runs
            return spy

        monkeypatch.setattr(
            symmetric, "run_split", spy_into(calls["symmetric"])
        )
        monkeypatch.setattr(
            distributed, "run_split", spy_into(calls["distributed"])
        )
        return calls

    @pytest.mark.parametrize(
        "victim, batch", [(0, 0), (1, 1), (2, 1), (1, 2), (7, 1)]
    )
    def test_same_assignments_for_same_victim_and_batch(
        self, small_library, union, executed, victim, batch
    ):
        plan = FaultPlan.single(FaultKind.RANK_CRASH, batch=batch, rank=victim)
        ctx = TransportContext.create(
            small_library, pincell=True, union=union, master_seed=7
        )
        sup = Supervisor(n_ranks=self.RANKS, policy=LENIENT)
        ec = ExecutionContext.create(
            transport=ctx, backend="event", supervisor=sup, fault_plan=plan,
        )
        pos, en = source(self.N)
        scheduler = SymmetricScheduler(n_ranks=self.RANKS)
        for _ in range(self.BATCHES):
            scheduler.run_generation(ec, pos, en, ec.new_tallies(), 1.0, 0)

        dist_sup = Supervisor(n_ranks=self.RANKS, policy=LENIENT)
        dist = DistributedSimulation(
            small_library,
            Settings(n_particles=self.N, n_inactive=1,
                     n_active=self.BATCHES - 1, pincell=True,
                     mode="event", seed=17),
            self.RANKS, fault_plan=plan, supervisor=dist_sup,
        ).run()

        assert len(executed["symmetric"]) == self.BATCHES
        assert executed["symmetric"] == executed["distributed"]
        crashed = [victim] if victim < self.RANKS else []
        assert sup.evicted == dist_sup.evicted == dist.failed_ranks == crashed
        # The crash batch re-runs the victim's slice on the survivors; every
        # batch still covers [0, N) exactly once, in global-start order.
        for i, units in enumerate(executed["symmetric"]):
            assert units[0][1] == 0 and units[-1][2] == self.N
            assert all(a[2] == b[1] for a, b in zip(units, units[1:]))
            ranks = {rank for rank, _, _ in units}
            assert (victim in ranks) == (i < batch and victim < self.RANKS)


class TestNativeSupervision:
    def test_native_scheduler_feeds_observations(
        self, small_library, union
    ):
        sup = Supervisor(n_ranks=1, policy=LENIENT)
        supervised = run_batches(
            small_library, union, NativeScheduler(), supervisor=sup
        )
        plain = run_batches(small_library, union, NativeScheduler())
        assert_on_contract(plain, supervised)
        report = sup.report()
        assert report["batches"] == 3
        assert report["health"][0]["batches"] == 3
        assert report["health"][0]["rate"] > 0


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
