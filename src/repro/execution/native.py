"""The native execution model: the whole application runs on one device.

The MIC boots Linux and runs the full history-based OpenMC; no PCIe traffic
after startup, but the application must fit in device memory and live with
the in-order cores' serial performance (paper §II-B, §III-B1).  This model
produces Fig. 5's calculation-rate curves (inactive vs active batches) and
Fig. 4's CPU-vs-MIC comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.kernels import TransportCostModel, WorkPerParticle
from ..machine.memory import library_nuclides, max_particles
from ..machine.spec import DeviceSpec

__all__ = ["NativeModel", "alpha"]

#: Active batches also score tallies at every collision/flight; with only
#: the default global tallies this is a small surcharge (the paper finds
#: "little distinction" on the default benchmark).
ACTIVE_TALLY_SURCHARGE = 0.015


@dataclass
class NativeModel:
    """Native-mode performance of one device on one H.M. model."""

    device: DeviceSpec
    model: str
    work: WorkPerParticle | None = None

    def __post_init__(self) -> None:
        if self.work is None:
            self.work = WorkPerParticle.hm_reference()
        self._cost = TransportCostModel(
            self.device, library_nuclides(self.model), self.work
        )

    def fits(self, n_particles: int) -> bool:
        """Whether the population fits in device memory (Fig. 5 cutoffs)."""
        return n_particles <= max_particles(self.device, self.model)

    def calculation_rate(self, n_particles: int, active: bool = False) -> float:
        """Neutrons per second for a batch of ``n`` particles.

        Returns 0 for populations that exceed device memory.  ``active``
        batches pay the tally surcharge.
        """
        if not self.fits(n_particles):
            return 0.0
        rate = self._cost.calculation_rate(n_particles)
        if active:
            rate /= 1.0 + ACTIVE_TALLY_SURCHARGE
        return rate

    def batch_time(self, n_particles: int, active: bool = False) -> float:
        t = self._cost.batch_time(n_particles)
        if active:
            t *= 1.0 + ACTIVE_TALLY_SURCHARGE
        return t

    def total_time(
        self, n_particles: int, n_inactive: int, n_active: int
    ) -> float:
        """Wall time of a full simulation (Fig. 4's 96 vs 65 minutes)."""
        return n_inactive * self.batch_time(n_particles) + n_active * (
            self.batch_time(n_particles, active=True)
        )

    def lookup_fraction(self) -> float:
        return self._cost.lookup_fraction()


def alpha(
    host: DeviceSpec,
    mic: DeviceSpec,
    model: str,
    n_particles: int,
    active: bool = False,
    work: WorkPerParticle | None = None,
) -> float:
    """The paper's Eq. (2): CPU calculation rate / MIC calculation rate."""
    h = NativeModel(host, model, work)
    m = NativeModel(mic, model, work)
    rm = m.calculation_rate(n_particles, active)
    if rm == 0.0:
        return float("inf")
    return h.calculation_rate(n_particles, active) / rm
