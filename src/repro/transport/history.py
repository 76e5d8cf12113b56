r"""History-based transport: the scalar schedule over the stage kernels.

This is OpenMC's algorithm and the paper's baseline: each particle is tracked
from birth (a fission site) to death (absorption, leakage, or energy
cutoff), with every decision driven by the particle's private random-number
stream.  The physics lives in :mod:`repro.transport.stages`; this module is
only the *schedule* — the per-particle while-loop that decides when each
kernel's **scalar apply** runs.

**The RNG protocol.**  The event-based loop (:mod:`repro.transport.events`)
must consume each particle's stream in *exactly* the same order so the two
algorithms produce identical histories.  The canonical order, per particle:

1. birth: 2 draws (isotropic direction);
2. per flight segment:
   a. XS lookup: 1 conditional draw per in-range URR nuclide, in material
      nuclide order (inside :class:`repro.physics.macroxs.XSCalculator`);
   b. 1 draw for the collision distance;
   c. surface crossing: no draws;
   d. collision (analog mode): 1 draw for the channel, then
      - capture: no further draws (history ends);
      - fission: 1 draw for the fissioning nuclide, 1 draw for the site
        count, then per banked site the Watt rejection draws (variable);
      - scatter: 1 draw for the scattering nuclide, then kinematics —
        S(alpha, beta) (3 draws: outgoing bin, cosine bin, azimuth),
        free-gas (7 draws), or target-at-rest elastic (2 draws);
   e. collision (survival-biasing mode): NO channel draw — capture and
      fission are implicit.  1 draw for the expected fission-site count,
      per-site Watt draws, then the scatter sequence of (d), then 1
      roulette draw only if the reduced weight fell below the cutoff.

Any change to this protocol lands in the stage kernels, which both
schedules share; the equivalence tests in
``tests/transport/test_equivalence.py`` enforce bit-parity.
"""

from __future__ import annotations

import numpy as np

from ..types import CollisionChannel
from .context import TransportContext
from .meshtally import PowerTally
from .particle import FissionBank, Particle
from .spectrum import SpectrumTally
from .stages import (
    COLLISION,
    CROSSING,
    FISSION,
    FLIGHT,
    SCATTER,
    SURVIVAL,
    XS_LOOKUP,
)
from .tally import GlobalTallies

__all__ = ["transport_history", "run_generation_history"]


def transport_history(
    particle: Particle,
    ctx: TransportContext,
    tallies: GlobalTallies,
    fission_bank: FissionBank,
    k_norm: float = 1.0,
    power: PowerTally | None = None,
    spectrum: SpectrumTally | None = None,
) -> None:
    """Track one particle to death, scoring tallies and banking fission
    sites."""
    stream = particle.stream
    counters = ctx.counters

    while particle.alive:
        mat_id = ctx.material_id_at(particle.position)
        if mat_id < 0:
            tallies.n_leaks += 1
            particle.alive = False
            break
        material = ctx.material(mat_id)

        # (a) Cross-section lookup (Algorithm 1) — the bottleneck kernel.
        xs = XS_LOOKUP.scalar(ctx, material, particle.energy, stream)

        # (b) Distance to collision (Eq. 1) vs distance to boundary.
        d_coll, d_bound = FLIGHT.scalar(ctx, particle, xs)

        d_move = min(d_bound, d_coll)
        if power is not None:
            power.score_track(
                particle.position + 0.5 * d_move * particle.direction,
                particle.weight,
                d_move,
                xs.fission,
            )
        if spectrum is not None:
            spectrum.score_track(particle.energy, particle.weight, d_move)

        if d_bound < d_coll:
            # (c) Surface crossing: move past the surface and relocate.
            tallies.score_track(particle.weight, d_bound, xs.nu_fission)
            CROSSING.scalar(ctx, particle, tallies, d_bound)
            continue

        # (d) Collision.
        tallies.score_track(particle.weight, d_coll, xs.nu_fission)
        particle.position = particle.position + d_coll * particle.direction
        tallies.score_collision(particle.weight, xs.nu_fission, xs.total)
        counters.collisions += 1

        if ctx.survival_biasing:
            # (e) Implicit capture: no channel draw; expected fission sites
            # banked, weight reduced by the survival probability, always
            # scatter, roulette below the weight cutoff.
            SURVIVAL.scalar(
                ctx, particle, material, xs, tallies, fission_bank, k_norm
            )
            continue

        channel = COLLISION.scalar(ctx, xs, stream)

        if channel == CollisionChannel.CAPTURE:
            tallies.score_absorption(
                particle.weight, xs.nu_fission, xs.absorption
            )
            particle.alive = False

        elif channel == CollisionChannel.FISSION:
            tallies.score_absorption(
                particle.weight, xs.nu_fission, xs.absorption
            )
            counters.fissions += 1
            FISSION.scalar(ctx, particle, material, fission_bank, k_norm)

        else:  # SCATTER (clamp included in the kernel)
            SCATTER.scalar(ctx, particle, material)


def run_generation_history(
    ctx: TransportContext,
    positions: np.ndarray,
    energies: np.ndarray,
    tallies: GlobalTallies,
    k_norm: float = 1.0,
    first_id: int = 0,
    power: PowerTally | None = None,
    spectrum: SpectrumTally | None = None,
) -> FissionBank:
    """Transport one generation of source particles, history style.

    Returns the fission bank for the next generation.  ``first_id`` offsets
    the particle ids (and hence their RNG streams) so successive batches
    draw from disjoint stream ranges.
    """
    bank = FissionBank()
    n = positions.shape[0]
    tallies.source_weight += float(n)
    for i in range(n):
        particle = Particle.from_source(
            first_id + i, positions[i], float(energies[i]), ctx.master_seed
        )
        ctx.counters.rn_draws += 2
        transport_history(
            particle, ctx, tallies, bank, k_norm, power, spectrum
        )
    return bank
