"""The offload execution model: bank on the host, compute on the MIC.

Models the paper's §III-A3 pipeline per generation iteration:

1. **banking** — particles are written into the contiguous bank (host or
   MIC side; Table II measures both);
2. **transfer** — the bank crosses PCIe (the energy grid crossed once at
   initialization and is amortized);
3. **compute** — the MIC performs the banked cross-section lookups, filling
   each particle's per-nuclide micro-XS cache.

Calibration notes (all against Table II at 1e5 particles):

* host banking writes only the 1,434-byte base state (4 ms for both models
  -> ~36 GB/s streaming writes);
* MIC banking shows a base cost plus a per-nuclide slope (21 -> 34 ms from
  Small to Large);
* the MIC compute time equals the *full bank size* over ~28.5 GB/s — i.e.
  the kernel is bound by writing the per-nuclide micro-XS caches
  (496 MB / 17 ms and 2.84 GB / 101 ms both give the same bandwidth, which
  is the model's consistency check);
* a fixed per-offload runtime overhead is calibrated so that offloading
  beats host-side lookups above ~1e4 particles — Fig. 3's crossover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ExecutionError
from ..machine.kernels import TransportCostModel, WorkPerParticle
from ..machine.memory import (
    PARTICLE_BASE_BYTES,
    bank_bytes,
    energy_grid_bytes,
    library_nuclides,
)
from ..machine.pcie import PCIeLink
from ..machine.spec import DeviceSpec

if TYPE_CHECKING:
    from ..resilience.faults import FaultPlan
    from ..resilience.recovery import RetryPolicy

__all__ = ["OffloadCostModel"]

#: Host-side streaming-write bandwidth for banking base state [B/s].
_HOST_BANK_WRITE_BW = 36.0e9

#: MIC-side banking: base-state write bandwidth and per-(particle, nuclide)
#: record-setup time.
_MIC_BANK_WRITE_BW = 8.0e9
_MIC_BANK_PER_NUCLIDE_S = 4.7e-10

#: Effective MIC bandwidth for filling the bank's micro-XS caches [B/s]
#: (write-bound banked lookup; the Table II consistency bandwidth).
_MIC_XS_FILL_BW = 28.5e9

#: Fixed per-offload runtime overhead [s] (buffer registration, kernel
#: launch through the early MPSS offload stack); sets Fig. 3's ~1e4
#: particle profitability crossover.
OFFLOAD_FIXED_S = 0.16


@dataclass
class OffloadCostModel:
    """Per-iteration offload costs for a (host, MIC, link, model) setup."""

    host: DeviceSpec
    mic: DeviceSpec
    link: PCIeLink
    model: str
    work: WorkPerParticle | None = None
    #: Optional deterministic fault schedule; ``TRANSFER_STALL`` events hang
    #: the PCIe bank shipment of their iteration (see :meth:`transfer_time`).
    fault_plan: "FaultPlan | None" = None
    #: Retry/backoff policy pricing stalled-transfer recovery.
    retry_policy: "RetryPolicy | None" = None

    def __post_init__(self) -> None:
        if self.mic.out_of_order:
            raise ExecutionError("offload target should be the coprocessor")
        self.n_nuclides = library_nuclides(self.model)
        if self.work is None:
            self.work = WorkPerParticle.hm_reference()

    # -- Table II components ------------------------------------------------------

    def banking_time_host(self, n_particles: int) -> float:
        """Seconds to bank ``n`` particles on the host (base state only)."""
        return n_particles * PARTICLE_BASE_BYTES / _HOST_BANK_WRITE_BW

    def banking_time_mic(self, n_particles: int) -> float:
        """Seconds to bank ``n`` particles on the MIC."""
        base = n_particles * PARTICLE_BASE_BYTES / _MIC_BANK_WRITE_BW
        slope = n_particles * self.n_nuclides * _MIC_BANK_PER_NUCLIDE_S
        return base + slope

    def transfer_time(self, n_particles: int, iteration: int | None = None) -> float:
        """Seconds to ship the bank over PCIe (per iteration).

        When an ``iteration`` index is given and the model carries a
        :class:`~repro.resilience.faults.FaultPlan`, any ``TRANSFER_STALL``
        scheduled for that iteration is charged on top of the clean
        shipment: without a retry policy the transfer simply hangs for the
        stall duration; with one, the runtime aborts at the policy's stall
        timeout, backs off, and re-ships — the deterministic recovery cost.
        """
        clean = self.link.bank_transfer_time(bank_bytes(n_particles, self.model))
        if iteration is None or self.fault_plan is None:
            return clean
        stall = self.fault_plan.stall_seconds(iteration)
        if stall <= 0.0:
            return clean
        if self.retry_policy is None:
            return clean + stall
        policy = self.retry_policy
        timeout = min(stall, policy.stall_timeout_s)
        return timeout + policy.delay_s(1) + clean

    def grid_transfer_time(self) -> float:
        """One-time energy-grid shipment (amortized over batches)."""
        return self.link.bulk_transfer_time(energy_grid_bytes(self.model))

    def mic_compute_time(self, n_particles: int) -> float:
        """Seconds for the MIC to fill the bank's micro-XS caches (the pure
        kernel time Table II reports)."""
        return bank_bytes(n_particles, self.model) / _MIC_XS_FILL_BW

    def mic_launch_overhead(self) -> float:
        """Per-offload kernel-launch / thread-team wakeup cost on the MIC —
        why the compute component's *relative* cost falls as N grows
        (Fig. 3)."""
        from ..machine.occupancy import batch_overhead_s

        return batch_overhead_s(self.mic)

    # -- Host-side reference -------------------------------------------------------

    def host_generation_time(self, n_particles: int) -> float:
        """Host time to simulate all histories (the Fig. 3 normalizer)."""
        host_model = TransportCostModel(self.host, self.n_nuclides, self.work)
        return host_model.batch_time(n_particles)

    def host_lookup_time(self, n_particles: int) -> float:
        """Host time spent in cross-section lookups only (what offload
        would replace).  Excludes the batch-fixed overhead, so its share of
        the generation time *rises* with N as overheads amortize — Fig. 3's
        'calculating cross sections on the host increases'."""
        from ..machine.occupancy import batch_overhead_s

        host_model = TransportCostModel(self.host, self.n_nuclides, self.work)
        compute = host_model.batch_time(n_particles) - batch_overhead_s(self.host)
        return compute * host_model.lookup_fraction()

    # -- Composite ------------------------------------------------------------------

    def offload_time(self, n_particles: int, iteration: int | None = None) -> float:
        """Total per-iteration offload cost (banking + transfer + compute +
        fixed runtime overhead), without overlap.  With ``iteration`` and a
        fault plan, injected transfer stalls (and their retry recovery) are
        included."""
        return (
            OFFLOAD_FIXED_S
            + self.banking_time_host(n_particles)
            + self.transfer_time(n_particles, iteration)
            + self.mic_compute_time(n_particles)
            + self.mic_launch_overhead()
        )

    def profitable(self, n_particles: int) -> bool:
        """Whether offloading the lookups beats doing them on the host."""
        return self.offload_time(n_particles) < self.host_lookup_time(n_particles)

    def crossover_particles(self) -> int:
        """Smallest bank size (log-spaced search) where offload wins —
        the paper's 'above 10,000 particles'."""
        lo, hi = 1, 1
        for exp in range(2, 9):
            hi = 10**exp
            if self.profitable(hi):
                break
            lo = hi
        else:
            raise ExecutionError("offload never profitable in search range")
        # Bisect between lo and hi.
        while hi - lo > max(1, lo // 100):
            mid = (lo + hi) // 2
            if self.profitable(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def normalized_ratios(self, n_particles: int) -> dict[str, float]:
        """Fig. 3's quantities: each cost over the host generation time."""
        gen = self.host_generation_time(n_particles)
        return {
            "bank_host": self.banking_time_host(n_particles) / gen,
            "bank_mic": self.banking_time_mic(n_particles) / gen,
            "transfer": (
                OFFLOAD_FIXED_S + self.transfer_time(n_particles)
            ) / gen,
            "mic_compute": (
                self.mic_compute_time(n_particles) + self.mic_launch_overhead()
            ) / gen,
            "host_xs_compute": self.host_lookup_time(n_particles) / gen,
        }
