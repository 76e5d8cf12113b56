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

import numpy as np

from ..data.library import NuclideLibrary
from ..errors import ClusterError
from ..execution.context import ExecutionContext
from ..execution.loadbalance import equal_assignments, equal_split
from ..execution.symmetric import run_split
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RetryPolicy
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


class DistributedSimulation:
    """An R-rank eigenvalue calculation over the simulated communicator.

    Ranks execute sequentially in-process (we model the cluster, not
    wall-clock parallelism), but every data movement a real MPI build
    performs — tally reduction, bank merge, source broadcast — goes through
    the communicator and is charged modelled fabric time.

    ``fault_plan`` injects deterministic rank crashes; ``retry_policy``
    prices failure detection and backoff on the modelled clock.
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
    ) -> None:
        if n_ranks < 1:
            raise ClusterError("need at least one rank")
        self.settings = settings
        self.n_ranks = n_ranks
        self.supervisor = supervisor
        # A supervisor with a communication budget meters every collective.
        budget = getattr(supervisor, "comm_budget", None)
        self.comm = SimulatedComm(n_ranks, fabric, budget=budget)
        self.retry_policy = retry_policy or RetryPolicy()
        # One Simulation provides source sampling and a shared context
        # (read-only nuclear data and geometry are node-replicated in the
        # paper's runs; sharing the context models that replication).
        self._driver = Simulation(library, settings)
        self.ctx = self._driver.ctx
        # Ranks run transport through the registry backend named by the
        # settings; the ExecutionContext also carries the resilience hooks.
        self._ec = ExecutionContext.create(
            transport=self.ctx,
            backend=settings.mode,
            fault_plan=fault_plan,
            retry_policy=self.retry_policy,
            supervisor=supervisor,
        )

    def run(self) -> DistributedResult:
        s = self.settings
        ec = self._ec
        stats = BatchStatistics(n_inactive=s.n_inactive)
        positions, energies = self._driver.initial_source(s.n_particles)

        alive = list(range(self.n_ranks))
        failed_ranks: list[int] = []
        recovery_time = 0.0

        supervisor = self.supervisor
        id_offset = 0
        for batch_idx in range(s.n_inactive + s.n_active):
            ec.begin_batch()
            assignments = equal_assignments(s.n_particles, alive)
            crashed = ec.crashed_rank(batch_idx, alive)
            # Runs come back in ascending global start (the serial bank
            # ordering), a crashed rank's slice re-run by the survivors.
            runs = run_split(
                ec, assignments, alive, crashed, batch_idx,
                positions, energies, stats.running_k(), id_offset,
            )
            if crashed is not None:
                # Failure is detected after the stall timeout, then the
                # dead slice's source sites (pos + energy) are re-shipped.
                policy = self.retry_policy
                recovery_time += policy.stall_timeout_s + policy.delay_s(1)
                if supervisor is not None:
                    supervisor.note_retry()
                n_lost = sum(
                    sl.stop - sl.start for r, sl in assignments if r == crashed
                )
                recovery_time += self.comm.fabric.message_time(n_lost * 32.0)
                alive = [r for r in alive if r != crashed]
                failed_ranks.append(crashed)
                self.comm = self.comm.shrink(len(alive))
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
            merged = ec.merge_banks([run.bank for run in runs])
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
                # Chronic stragglers leave the topology *between* batches
                # (their current batch already merged — no work is lost).
                evicted = supervisor.finish_batch(batch_idx)
                if evicted:
                    alive = [r for r in alive if r not in evicted]
                    failed_ranks.extend(evicted)
                    self.comm = self.comm.shrink(len(alive))

        return DistributedResult(
            statistics=stats,
            n_ranks=self.n_ranks,
            comm_time=self.comm.comm_time,
            per_rank_particles=equal_split(s.n_particles, self.n_ranks),
            recovery_time=recovery_time,
            failed_ranks=failed_ranks,
            surviving_ranks=len(alive),
        )
