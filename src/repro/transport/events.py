r"""Event-based (banked) transport: the banked schedule over the stage kernels.

The algorithm of Brown & Martin that the paper's micro-benchmarks
prototype, carried to a full implementation: instead of following one
history at a time, *all* live particles advance together through a cycle of
homogeneous stages, each the **banked apply** of a shared
:class:`~repro.transport.stages.StageKernel`:

1. **XS lookup** — group the bank by material and apply the banked
   Algorithm 1 (:meth:`repro.physics.macroxs.XSCalculator.banked`) to each
   group, one energy-banded tile at a time (the paper's micro-benchmark
   #1);
2. **advance** — sample all collision distances at once (micro-benchmark
   #2), ray-trace all boundary distances with the analytic fast geometry,
   move everyone;
3. **surface crossings** — nudge, relocate, apply boundary conditions;
4. **collisions** — branch-free channel selection, then gathered/compressed
   sub-banks for capture, fission (vectorized Watt sampling), and scattering
   (S(alpha, beta) / free-gas / target-at-rest), exactly the
   gather-scatter-compress structure the paper prescribes for conditionals.

The physics lives in :mod:`repro.transport.stages`; this module is only the
*schedule* — the compacted live-index loop that decides when each kernel
runs.  Every particle's random-number stream is consumed in exactly the
order of the history-based protocol (see :mod:`repro.transport.history`),
so a history run and an event run with the same seed produce identical
particle histories, tallies, and fission banks — the strongest possible
correctness check for the restructured control flow.
"""

from __future__ import annotations

import numpy as np

from .context import TransportContext
from .meshtally import PowerTally
from .particle import FissionBank, ParticleBank
from .spectrum import SpectrumTally
from .stages import (
    CROSSING,
    FLIGHT,
    XS_LOOKUP,
    SigmaTables,
    collide_banked,
)
from .tally import GlobalTallies

__all__ = ["run_generation_event"]


def run_generation_event(
    ctx: TransportContext,
    positions: np.ndarray,
    energies: np.ndarray,
    tallies: GlobalTallies,
    k_norm: float = 1.0,
    first_id: int = 0,
    power: PowerTally | None = None,
    spectrum: SpectrumTally | None = None,
) -> FissionBank:
    """Transport one generation of source particles, event style.

    Mirrors :func:`repro.transport.history.run_generation_history` exactly
    (same tallies, same fission bank, same RNG streams); returns the
    next-generation fission bank.  Every stage walks the bank in live-index
    (ascending) order; the one stage that profits from another order, the
    XS lookup, bands its own tiles by energy
    (:func:`repro.transport.stages.material_tiles`).
    """
    fission_bank = FissionBank()

    bank = ParticleBank.from_source(positions, energies, first_id, ctx.master_seed)
    particle_ids = first_id + np.arange(positions.shape[0])
    n = bank.n
    tallies.source_weight += float(n)
    ctx.counters.rn_draws += 2 * n

    # Per-particle sigma side-tables refreshed by the lookup stage each cycle.
    sig = SigmaTables.zeros(n)

    # Compacted live-index bank: starts as the full bank and shrinks
    # monotonically as particles die, so no stage ever rescans dead lanes
    # (the remapping strategy of the GPU event-based literature; the
    # per-cycle ``np.nonzero(bank.alive)`` full-bank scan is gone).
    live = np.arange(n, dtype=np.int64)

    while True:
        # Compact: drop lanes that died last cycle.  ``live`` stays sorted,
        # so the filtered view equals ``np.nonzero(bank.alive)[0]`` without
        # touching the dead part of the bank.
        live = live[bank.alive[live]]
        if live.size == 0:
            break
        alive_idx = live

        # ---- Stage 1: banked cross-section lookups.
        XS_LOOKUP.banked(ctx, bank, alive_idx, sig)

        # ---- Stage 2: sample collision distances; ray-trace; advance.
        pos, dirs, w, d, crossing = FLIGHT.banked(ctx, bank, alive_idx, sig)
        tallies.score_track_many(w, d, sig.nu_fission[alive_idx])
        if power is not None:
            power.score_track_many(
                pos + 0.5 * d[:, None] * dirs,
                w,
                d,
                sig.fission[alive_idx],
            )
        if spectrum is not None:
            spectrum.score_track_many(bank.energy[alive_idx], w, d)
        bank.position[alive_idx] = pos + d[:, None] * dirs

        cross_idx = alive_idx[crossing]
        coll_idx = alive_idx[~crossing]

        # ---- Stage 3: surface crossings — nudge past, resolve escapes.
        if cross_idx.size:
            CROSSING.banked(ctx, bank, cross_idx, tallies)

        # ---- Stage 4: collisions.
        if coll_idx.size:
            collide_banked(
                ctx, bank, coll_idx, sig, tallies, fission_bank, k_norm,
                particle_ids,
            )

    return fission_bank
