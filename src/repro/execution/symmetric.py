"""The symmetric execution model: an ordered device fleet under MPI.

One binary per architecture, launched together; work is split across the
fleet.  The batch barrier means the node's batch time is the *maximum*
over its ranks — the load-imbalance mechanism behind Table III's
"Original" column — plus a per-batch synchronization/reduction cost.

:class:`FleetNode` prices N heterogeneous devices under the equal /
rate-proportional / explicit-weight / Eq. 3 alpha splits: Table III
directly, and the per-node building block of the cluster-scaling
experiments (Figs. 6-7).  :func:`run_split` is the one place a generation
is split over ranks and run: the :class:`SymmetricScheduler` and the
cluster driver (:mod:`repro.cluster.distributed`) both plan ``(rank,
slice)`` assignments, hand them to it, and merge what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ..errors import ClusterError, ExecutionError
from ..machine.kernels import TransportCostModel, WorkPerParticle
from ..machine.memory import library_nuclides
from ..machine.spec import DeviceSpec
from ..resilience.recovery import redistribute_slice
from .loadbalance import (
    alpha_split_counts,
    equal_assignments,
    equal_split,
    fleet_split,
)

if TYPE_CHECKING:
    from .context import ExecutionContext

__all__ = ["FleetNode", "SliceRun", "SymmetricScheduler", "run_split"]

#: Per-batch synchronization + tally-reduction cost within a node [s].
NODE_SYNC_S = 0.1


@dataclass
class FleetNode:
    """One compute node running symmetric mode over an ordered fleet of
    N heterogeneous devices.

    Split strategies: ``"equal"`` (OpenMC default), ``"rate"``
    (rate-proportional :func:`~repro.execution.loadbalance.fleet_split`
    over each device's modelled rate at its equal share — Eq. 3
    generalized), ``"weights"`` (explicit rate weights), or ``"alpha"``
    (the paper's Eq. 3 two-class split: the last device is the host,
    every device before it a MIC; requires ``alpha``).
    """

    devices: list[DeviceSpec]
    model: str
    work: WorkPerParticle | None = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise ExecutionError("fleet needs at least one device")
        if self.work is None:
            self.work = WorkPerParticle.hm_reference()
        n_nuc = library_nuclides(self.model)
        self._costs = [
            TransportCostModel(d, n_nuc, self.work) for d in self.devices
        ]

    @property
    def n_ranks(self) -> int:
        return len(self.devices)

    # -- Assignments ----------------------------------------------------------------

    def device_rates(self, n_particles: int) -> list[float]:
        """Modelled per-device rates at an equal share of ``n_particles``
        (occupancy effects included) — the ``"rate"`` strategy's weights."""
        per = max(n_particles // self.n_ranks, 1)
        return [cost.calculation_rate(per) for cost in self._costs]

    def fleet_counts(
        self,
        n_particles: int,
        strategy: str = "equal",
        alpha: float | None = None,
        weights: "list[float] | None" = None,
    ) -> list[int]:
        """Per-rank particle counts in fleet order."""
        if strategy == "equal":
            return equal_split(n_particles, self.n_ranks)
        if strategy == "rate":
            return fleet_split(n_particles, self.device_rates(n_particles))
        if strategy == "weights":
            if weights is None:
                raise ExecutionError("weights strategy requires weights")
            return fleet_split(n_particles, weights)
        if strategy == "alpha":
            if alpha is None:
                raise ExecutionError("alpha strategy requires alpha")
            mic_counts, host_counts = alpha_split_counts(
                n_particles, self.n_ranks - 1, 1, alpha
            )
            return [*mic_counts, *host_counts]
        raise ExecutionError(f"unknown split strategy {strategy!r}")

    # -- Timing ---------------------------------------------------------------------

    def batch_time(
        self,
        n_particles: int,
        strategy: str = "equal",
        alpha: float | None = None,
        weights: "list[float] | None" = None,
    ) -> float:
        """Node batch time: barrier max over ranks, plus node sync."""
        counts = self.fleet_counts(n_particles, strategy, alpha, weights)
        times = [
            cost.batch_time(count)
            for cost, count in zip(self._costs, counts)
            if count > 0
        ]
        if not times:
            times = [self._costs[0].batch_time(0)]
        return max(times) + NODE_SYNC_S

    def calculation_rate(
        self,
        n_particles: int,
        strategy: str = "equal",
        alpha: float | None = None,
        weights: "list[float] | None" = None,
    ) -> float:
        """Node calculation rate [n/s] (Table III's entries)."""
        t = self.batch_time(n_particles, strategy, alpha, weights)
        return n_particles / t if t > 0 else 0.0

    def ideal_rate(self, n_particles: int) -> float:
        """Sum of isolated device rates — the paper's 'ideal' reference."""
        per = n_particles // self.n_ranks
        return sum(cost.calculation_rate(per) for cost in self._costs)


class SliceRun(NamedTuple):
    """One executed ``(rank, slice)`` unit of a split generation."""

    rank: int
    slice: slice
    tallies: object
    bank: object
    seconds: float


def run_split(
    ec: "ExecutionContext",
    assignments: "Sequence[tuple[int, slice]]",
    alive: "Sequence[int]",
    victim: "int | None",
    batch: "int | None",
    positions,
    energies,
    k_norm: float = 1.0,
    first_id: int = 0,
    power=None,
    spectrum=None,
) -> list[SliceRun]:
    """Run one generation split into ``(rank, slice)`` assignments.

    ``victim`` (:meth:`ExecutionContext.crashed_rank`) dies mid-generation:
    it is evicted from ``alive`` — through the supervisor when there is
    one, so the policy floor applies — and its slices are redistributed
    over the survivors.  Every non-empty slice then runs on fresh tallies,
    in ascending global start, so the reduction order is deterministic.
    Each slice keeps its *global* first id: whichever rank transports it,
    the histories are the unsplit run's, and merged banks and work counters
    stay bit-identical to it.  Per-rank ``(seconds, particles)`` totals go
    to the supervisor; the caller merges the runs and closes the batch.
    """
    assignments = list(assignments)
    if victim is not None:
        if ec.supervisor is not None:
            # DegradedRunError at the policy floor, typed event otherwise.
            ec.supervisor.evict(victim, batch=batch, reason="crash")
        survivors = [r for r in alive if r != victim]
        if not survivors:
            raise ClusterError(
                f"rank {victim} crashed and no survivors remain"
            )
        dead = [sl for r, sl in assignments if r == victim]
        assignments = [(r, sl) for r, sl in assignments if r != victim]
        for dead_slice in dead:
            assignments.extend(redistribute_slice(dead_slice, survivors))
    assignments.sort(key=lambda pair: pair[1].start)

    runs: list[SliceRun] = []
    per_rank: dict[int, list] = {}
    for rank, sl in assignments:
        count = sl.stop - sl.start
        if count == 0:
            continue
        tallies = ec.new_tallies()
        t0 = perf_counter()
        bank = ec.run_generation(
            positions[sl], energies[sl], tallies,
            k_norm, first_id + sl.start,
            power=power, spectrum=spectrum,
        )
        seconds = perf_counter() - t0
        runs.append(SliceRun(rank, sl, tallies, bank, seconds))
        acc = per_rank.setdefault(rank, [0.0, 0])
        acc[0] += seconds
        acc[1] += count
    ec.observe_ranks(batch, per_rank)
    return runs


@dataclass
class SymmetricScheduler:
    """Symmetric-mode scheduler: the generation is split across the
    node's ranks, each rank transports its contiguous slice through the
    backend, and per-rank tallies and banks are reduced at the batch
    barrier.

    Because particle RNG streams are keyed by *global* particle id
    (``first_id`` + slice offset) and the fission bank's canonical
    ``(parent, seq)`` ordering is split-invariant, the merged bank and
    work counters are bit-identical to an unsplit run of the same
    backend; tally floats agree to summation-order tolerance (per-rank
    partial sums are merged at the barrier) — Table III's execution
    model without giving up the equivalence contract.  No transport
    imports: slices run and merge through the
    :class:`~repro.execution.context.ExecutionContext`.

    With a supervisor *and* a work-stealing rebalancer on the context,
    each batch's assignment is re-planned from the health monitor's EMA
    rates (see :mod:`repro.execution.rebalance`); slices keep their
    global ids, so the bit-identity contract above carries over to
    rebalanced runs versus a static run of the same final assignment.
    """

    node: FleetNode | None = None
    #: Rank count when no :class:`FleetNode` cost model is attached.
    n_ranks: int = 2

    @property
    def ranks(self) -> int:
        return self.node.n_ranks if self.node is not None else self.n_ranks

    def run_generation(
        self,
        ec: "ExecutionContext",
        positions,
        energies,
        tallies,
        k_norm: float = 1.0,
        first_id: int = 0,
        power=None,
        spectrum=None,
    ):
        """Transport one generation split across the node's ranks; merge
        per-slice tallies (in global-start order) and banks into the
        caller's.

        With a supervisor on the context the split covers only the alive
        ranks, an injected rank crash is folded in by :func:`run_split`,
        and chronic stragglers are evicted between batches; without one
        every hook is a no-op and the split is the static one.
        """
        if self.ranks < 1:
            raise ExecutionError("symmetric scheduler needs >= 1 rank")
        sup = ec.supervisor
        batch = ec.begin_batch()
        alive = sup.alive if sup is not None else list(range(self.ranks))
        n = positions.shape[0]
        if sup is not None and ec.rebalancer is not None:
            rates = ec.rebalancer.resolve_rates(alive, sup.monitor)
            assignments = ec.rebalancer.plan(batch, n, alive, rates)
        else:
            assignments = equal_assignments(n, alive)
        t0 = perf_counter()
        runs = run_split(
            ec, assignments, alive, ec.crashed_rank(batch, alive), batch,
            positions, energies, k_norm, first_id, power, spectrum,
        )
        ec.end_batch(batch, perf_counter() - t0, "symmetric")
        for run in runs:
            tallies.merge_from(run.tallies)
        return ec.merge_banks([run.bank for run in runs])
