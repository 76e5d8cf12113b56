r"""Woodcock delta-tracking: the SIMD-friendliest transport scheme.

Surface tracking (the loops in :mod:`~repro.transport.history` /
:mod:`~repro.transport.events`) must compute the distance to the nearest
surface on every flight — branchy geometry code that resists vectorization
(the reason the paper's related GPU work leans on coarser tracking).
Woodcock tracking removes geometry from the flight entirely:

1. build a **majorant** cross section :math:`\Sigma_{maj}(E) \ge
   \Sigma_t(E, \vec r)\ \forall \vec r` (max over materials, with a bound
   factor covering URR fluctuations);
2. sample every flight against :math:`\Sigma_{maj}` — one gather, no
   surface search;
3. at the tentative collision point, look up the *real* material and accept
   the collision with probability :math:`\Sigma_t / \Sigma_{maj}`;
   otherwise the collision is **virtual** and the flight continues.

Every step is a dense vectorized kernel over the whole bank — no
per-particle geometry branching at all.  Reflective pin-cell boundaries are
handled by analytic coordinate folding (mirror periodicity), and vacuum
boxes by killing particles whose tentative point lands outside.

Delta tracking draws a different random-number sequence than surface
tracking, so the two are compared *statistically* (same eigenvalue, within
error bars) rather than bitwise; the collision and absorption k estimators
remain unbiased (the track-length estimator is not scored — its delta-mode
form needs per-segment material integrals).
"""

from __future__ import annotations

import numpy as np

from ..errors import PhysicsError
from ..geometry.hoogenboom import ACTIVE_HALF_HEIGHT as _HALF_Z
from ..geometry.hoogenboom import PIN_PITCH
from ..rng.lcg import prn_array
from .context import TransportContext
from .particle import FissionBank, ParticleBank
from .stages import XS_LOOKUP, SigmaTables, collide_banked, tile_slices
from .tally import GlobalTallies

__all__ = ["MajorantXS", "run_generation_delta", "fold_reflective"]

_TINY = 1.0e-300


class MajorantXS:
    """A tabulated majorant over all materials on the union grid.

    ``safety`` adds headroom; URR fluctuations are covered by scaling with
    each probability table's maximum total-factor where energies fall in an
    unresolved range.
    """

    def __init__(self, ctx: TransportContext, safety: float = 1.02) -> None:
        calc = ctx.calculator
        if calc.union is None:
            raise PhysicsError("delta tracking requires a unionized grid")
        self.energy = calc.union.energy
        totals = []
        for material in ctx.model.materials:
            # Deterministic part (URR factors handled by the bound below).
            # The union grid is the largest bank this module ever looks up:
            # tile it like any other so the workspace stays tile-sized.
            total = np.empty_like(self.energy)
            saved = calc.use_urr
            calc.use_urr = False
            try:
                for run in tile_slices(material.n_nuclides, total.size):
                    total[run] = calc.banked(material, self.energy[run])["total"]
            finally:
                calc.use_urr = saved
            totals.append(total)
        sigma = np.max(totals, axis=0)

        # URR bound: within any table's range, scale by the largest factor
        # any reaction/band/column can apply.
        if calc.use_urr and ctx.library.urr:
            bound = np.ones_like(sigma)
            for table in ctx.library.urr.values():
                mask = np.asarray(table.contains(self.energy))
                if mask.any():
                    bound[mask] = np.maximum(
                        bound[mask], float(table.factors.max())
                    )
            sigma = sigma * bound
        self.sigma = sigma * safety

    def __call__(self, energies: np.ndarray) -> np.ndarray:
        """Majorant at each energy (right-continuous grid gather)."""
        idx = np.clip(
            np.searchsorted(self.energy, energies, side="right") - 1,
            0,
            self.energy.size - 2,
        )
        return np.maximum(self.sigma[idx], self.sigma[idx + 1])


def fold_reflective(
    coords: np.ndarray, half: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fold unbounded coordinates into a mirror-reflective slab [-half, half].

    Returns ``(folded_coords, direction_sign)`` where the sign is -1 on
    axes that crossed an odd number of mirrors (the direction component
    flips).  Vectorized over any shape.
    """
    period = 4.0 * half
    m = np.mod(coords + half, period)
    first_half = m <= 2.0 * half
    folded = np.where(first_half, m - half, 3.0 * half - m)
    sign = np.where(first_half, 1.0, -1.0)
    return folded, sign


def run_generation_delta(
    ctx: TransportContext,
    positions: np.ndarray,
    energies: np.ndarray,
    tallies: GlobalTallies,
    k_norm: float = 1.0,
    first_id: int = 0,
    majorant: MajorantXS | None = None,
) -> FissionBank:
    """Transport one generation with Woodcock delta-tracking (event-style).

    Supports the reflective pin cell (folded coordinates) and the
    vacuum-bounded full core (outside -> leak).  Returns the fission bank;
    the ``virtual`` counter field reports the rejection overhead via
    ``ctx.counters.flights`` (every tentative flight counts) vs
    ``ctx.counters.collisions`` (real ones only).
    """
    counters = ctx.counters
    if majorant is None:
        majorant = MajorantXS(ctx)
    fission_bank = FissionBank()

    bank = ParticleBank.from_source(positions, energies, first_id, ctx.master_seed)
    particle_ids = first_id + np.arange(positions.shape[0])
    n = bank.n
    tallies.source_weight += float(n)
    counters.rn_draws += 2 * n

    pincell = ctx.fast.pincell
    half = 0.5 * PIN_PITCH

    sig = SigmaTables.zeros(n)

    # Compacted live index, as in the event schedule: sorted, shrinking,
    # equal to ``np.nonzero(bank.alive)[0]`` without the full-bank scan.
    alive = np.arange(n, dtype=np.int64)

    while True:
        alive = alive[bank.alive[alive]]
        if alive.size == 0:
            break

        # ---- Flight against the majorant: one gather, no geometry.
        sig_maj = majorant(bank.energy[alive])
        states, xi = prn_array(bank.rng_state[alive])
        bank.rng_state[alive] = states
        counters.rn_draws += alive.size
        counters.flights += alive.size
        d = -np.log(np.maximum(xi, _TINY)) / sig_maj
        bank.position[alive] += d[:, None] * bank.direction[alive]

        # ---- Boundaries: fold (reflective pincell) or leak (vacuum box).
        if pincell:
            for axis, h in ((0, half), (1, half), (2, _HALF_Z)):
                folded, sign = fold_reflective(bank.position[alive, axis], h)
                bank.position[alive, axis] = folded
                bank.direction[alive, axis] *= sign
        mats = ctx.fast.locate_many(bank.position[alive])
        leaked = alive[mats < 0]
        if leaked.size:
            tallies.n_leaks += leaked.size
            bank.alive[leaked] = False
        inside = alive[mats >= 0]
        if inside.size == 0:
            continue
        bank.material[inside] = mats[mats >= 0]

        # ---- Real cross sections at tentative collision points.
        XS_LOOKUP.refresh(ctx, bank, inside, bank.material[inside], sig)

        # ---- Accept/reject: real vs virtual collision (one draw).
        states, xi_acc = prn_array(bank.rng_state[inside])
        bank.rng_state[inside] = states
        counters.rn_draws += inside.size
        ratio = sig.total[inside] / majorant(bank.energy[inside])
        if np.any(ratio > 1.0 + 1e-9):
            raise PhysicsError(
                "majorant violated — increase the safety factor"
            )
        real = inside[xi_acc < ratio]
        # Virtual collisions: nothing happens; flight continues next cycle.
        if real.size == 0:
            continue

        collide_banked(
            ctx, bank, real, sig, tallies, fission_bank, k_norm, particle_ids
        )

    return fission_bank
