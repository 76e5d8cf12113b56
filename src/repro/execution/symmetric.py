"""The symmetric execution model: an ordered device fleet under MPI.

One binary per architecture, launched together; work is split across the
fleet.  The batch barrier means the node's batch time is the *maximum*
over its ranks — the load-imbalance mechanism behind Table III's
"Original" column — plus a per-batch synchronization/reduction cost.

:class:`FleetNode` prices N heterogeneous devices under the equal /
rate-proportional / explicit-weight / Eq. 3 alpha splits: Table III
directly, and the per-node building block of the cluster-scaling
experiments (Figs. 6-7).  Ranks are *run* in one place only, the cluster
driver (:mod:`repro.cluster.distributed`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from ..machine.kernels import TransportCostModel, WorkPerParticle
from ..machine.memory import library_nuclides
from ..machine.spec import DeviceSpec
from .loadbalance import alpha_split_counts, equal_split, fleet_split

__all__ = ["FleetNode"]

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
