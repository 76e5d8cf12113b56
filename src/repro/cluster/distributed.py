"""Executable distributed eigenvalue simulation over the simulated fabric.

OpenMC's MPI decomposition, run for real (in-process): each rank transports
a slice of every generation, per-batch global tallies are combined with an
``allreduce`` through :class:`repro.cluster.simcomm.SimulatedComm`, fission
banks are merged and rebalanced, and the next generation is resampled from
the *global* bank.

Because particle RNG streams are keyed by **global** particle id and
tallies are additive, a run on R ranks is **bit-identical** to the serial
run — the property that makes MC transport "pleasingly parallel" and the
reason the paper's distributed results (Figs. 6-7) reduce to per-node rate
modelling.  The communicator charges modelled time for every collective,
so the run also yields the communication/computation split.

The same global-id keying powers the **rank-failure recovery path**: when a
:class:`~repro.resilience.faults.FaultPlan` crashes a rank mid-generation,
the dead rank's particle slice is redistributed contiguously across the
survivors (:func:`repro.resilience.recovery.redistribute_slice`) and
re-run.  The recovered histories are the exact histories the dead rank
would have produced, so even a run that loses ranks matches the serial run
bit-for-bit; only the modelled clock shows the failure (detection timeout,
backoff, re-shipped source sites, and a shrunken communicator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..data.library import NuclideLibrary
from ..errors import ClusterError
from ..execution.loadbalance import equal_assignments
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RetryPolicy, redistribute_slice
from ..transport.backends import get_backend
from ..transport.particle import FissionBank
from ..transport.simulation import Settings, Simulation
from ..transport.tally import BatchStatistics, GlobalTallies
from .simcomm import FabricModel, SimulatedComm

__all__ = ["DistributedResult", "DistributedSimulation"]


@dataclass
class DistributedResult:
    """Outcome of a distributed run."""

    statistics: BatchStatistics
    n_ranks: int
    comm_time: float
    #: Particles each rank (original id) transported in the last batch —
    #: zero for a rank lost to a crash or an eviction.
    per_rank_particles: list[int]
    #: Modelled seconds spent detecting failures and re-running lost slices.
    recovery_time: float = 0.0
    #: Ranks (original ids) lost to injected crashes, in failure order.
    failed_ranks: list[int] = field(default_factory=list)
    #: Ranks still alive at the end of the run.
    surviving_ranks: int = 0

    @property
    def k_effective(self):
        return self.statistics.combined_k()


class SliceRun(NamedTuple):
    """One executed ``(rank, slice)`` unit of a split generation."""

    rank: int
    slice: slice
    tallies: GlobalTallies
    bank: FissionBank


class DistributedSimulation:
    """An R-rank eigenvalue calculation over the simulated communicator.

    Ranks execute sequentially in-process (we model the cluster, not
    wall-clock parallelism), but every data movement a real MPI build
    performs — tally reduction, bank merge, source broadcast — goes through
    the communicator and is charged modelled fabric time.

    ``fault_plan`` injects deterministic rank crashes; ``retry_policy``
    prices failure detection and backoff on the modelled clock.  A
    ``supervisor`` (:class:`repro.supervise.Supervisor`) is fed per-rank
    batch observations, enforces the batch deadline and evicts chronic
    stragglers between batches; a ``rebalancer``
    (:class:`repro.execution.rebalance.WorkStealingRebalancer`) re-plans
    each batch's assignment from the supervisor's per-rank EMA rates in
    place of the static equal split.
    """

    def __init__(
        self,
        library: NuclideLibrary,
        settings: Settings,
        n_ranks: int,
        fabric: FabricModel | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        supervisor=None,
        rebalancer=None,
    ) -> None:
        if n_ranks < 1:
            raise ClusterError("need at least one rank")
        self.settings = settings
        self.n_ranks = n_ranks
        self.fault_plan = fault_plan
        self.supervisor = supervisor
        self.rebalancer = rebalancer
        # A supervisor with a communication budget meters every collective.
        budget = getattr(supervisor, "comm_budget", None)
        self.comm = SimulatedComm(n_ranks, fabric, budget=budget)
        self.retry_policy = retry_policy or RetryPolicy()
        # One Simulation provides source sampling and a shared context
        # (read-only nuclear data and geometry are node-replicated in the
        # paper's runs; sharing the context models that replication).
        self._driver = Simulation(library, settings)
        self.ctx = self._driver.ctx
        # One backend instance for the whole run (per-run caches such as
        # the delta majorant are built once), shared by every rank.
        self.backend = get_backend(settings.mode)

    def _run_split(
        self, assignments, batch, positions, energies, k_norm, first_id
    ) -> list[SliceRun]:
        """Run one generation split into ``(rank, slice)`` assignments.

        Every non-empty slice runs on fresh tallies, in ascending global
        start (the serial bank ordering), so the reduction order is
        deterministic.  Each slice keeps its *global* first id: whichever
        rank transports it, the histories are the unsplit run's, and merged
        banks and work counters stay bit-identical to it.  Per-rank
        ``(seconds, particles)`` totals go to the supervisor's health
        monitor.
        """
        runs: list[SliceRun] = []
        per_rank: dict[int, list] = {}
        for rank, sl in sorted(assignments, key=lambda pair: pair[1].start):
            count = sl.stop - sl.start
            if count == 0:
                continue
            tallies = GlobalTallies()
            t0 = perf_counter()
            bank = self.backend.run_generation(
                self.ctx, positions[sl], energies[sl], tallies,
                k_norm, first_id + sl.start,
            )
            seconds = perf_counter() - t0
            runs.append(SliceRun(rank, sl, tallies, bank))
            acc = per_rank.setdefault(rank, [0.0, 0])
            acc[0] += seconds
            acc[1] += count
        if self.supervisor is not None:
            for rank in sorted(per_rank):
                self.supervisor.observe_batch(rank, batch, *per_rank[rank])
        return runs

    def run(self) -> DistributedResult:
        s = self.settings
        stats = BatchStatistics(n_inactive=s.n_inactive)
        positions, energies = self._driver.initial_source(s.n_particles)

        alive = list(range(self.n_ranks))
        failed_ranks: list[int] = []
        recovery_time = 0.0
        runs: list[SliceRun] = []

        supervisor = self.supervisor
        rebalancer = self.rebalancer
        id_offset = 0
        for batch_idx in range(s.n_inactive + s.n_active):
            batch_t0 = perf_counter()
            if supervisor is not None:
                supervisor.begin_batch()
            if rebalancer is not None:
                rates = rebalancer.resolve_rates(
                    alive, getattr(supervisor, "monitor", None)
                )
                assignments = rebalancer.plan(
                    batch_idx, s.n_particles, alive, rates
                )
            else:
                assignments = equal_assignments(s.n_particles, alive)
            crashed = (
                self.fault_plan.crashed_rank(batch_idx)
                if self.fault_plan is not None
                else None
            )
            if crashed in alive:
                # The rank dies mid-generation: it is evicted — through the
                # supervisor when there is one, so the policy floor applies
                # (DegradedRunError) — and its slices are re-run by the
                # survivors.
                if supervisor is not None:
                    supervisor.evict(crashed, batch=batch_idx, reason="crash")
                    supervisor.note_retry()
                alive = [r for r in alive if r != crashed]
                if not alive:
                    raise ClusterError(
                        f"rank {crashed} crashed and no survivors remain"
                    )
                dead = [sl for r, sl in assignments if r == crashed]
                assignments = [
                    (r, sl) for r, sl in assignments if r != crashed
                ]
                for dead_slice in dead:
                    assignments.extend(redistribute_slice(dead_slice, alive))
                # Failure is detected after the stall timeout, then the
                # dead slices' source sites (pos + energy) are re-shipped.
                policy = self.retry_policy
                recovery_time += policy.stall_timeout_s + policy.delay_s(1)
                n_lost = sum(sl.stop - sl.start for sl in dead)
                recovery_time += self.comm.fabric.message_time(n_lost * 32.0)
                failed_ranks.append(crashed)
                self.comm = self.comm.shrink(len(alive))
            runs = self._run_split(
                assignments, batch_idx,
                positions, energies, stats.running_k(), id_offset,
            )
            id_offset += s.n_particles

            # Global tally reduction (what symmetric mode reduces per batch):
            # one buffer per surviving rank, recovered sub-slices folded into
            # their host rank's contribution.
            per_rank = {rank: GlobalTallies() for rank in alive}
            bank_counts = {rank: 0 for rank in alive}
            for run in runs:
                per_rank[run.rank].merge_from(run.tallies)
                bank_counts[run.rank] += len(run.bank)
            reduced, _ = self.comm.allreduce_sum(
                [per_rank[rank].as_array() for rank in alive]
            )
            global_tallies = GlobalTallies.from_array(reduced)

            # Global bank merge: sites carry global parent ids, so the
            # canonical (parent, seq) ordering reproduces the serial run's
            # bank regardless of which rank produced which slice.
            merged = FissionBank()
            for run in runs:
                merged.absorb(run.bank)
            stats.record(
                global_tallies,
                self._driver.mesh.entropy(
                    merged.positions if len(merged) else np.empty((0, 3))
                ),
            )

            # Bank rebalancing traffic + global resample.
            self.comm.exchange_bank([bank_counts[rank] for rank in alive])
            if len(merged) == 0:
                raise ClusterError("fission source died out")
            # Resample exactly as the serial driver does (same RNG).
            positions, energies = merged.sample_source(
                s.n_particles, self._driver._source_rng
            )
            self.comm.bcast(positions)

            if supervisor is not None:
                # A batch over the policy's deadline fails typed; chronic
                # stragglers leave the topology *between* batches (their
                # current batch already merged — no work is lost).
                supervisor.enforce_deadline(
                    perf_counter() - batch_t0,
                    what=f"distributed batch {batch_idx}",
                )
                evicted = supervisor.finish_batch(batch_idx)
                if evicted:
                    alive = [r for r in alive if r not in evicted]
                    failed_ranks.extend(evicted)
                    self.comm = self.comm.shrink(len(alive))

        per_rank_particles = [0] * self.n_ranks
        for run in runs:
            per_rank_particles[run.rank] += run.slice.stop - run.slice.start
        return DistributedResult(
            statistics=stats,
            n_ranks=self.n_ranks,
            comm_time=self.comm.comm_time,
            per_rank_particles=per_rank_particles,
            recovery_time=recovery_time,
            failed_ranks=failed_ranks,
            surviving_ranks=len(alive),
        )
