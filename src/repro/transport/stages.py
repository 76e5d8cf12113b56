r"""Stage kernels: the physics work shared by both transport schedules.

The paper's central observation (and this repo's architecture after PR 4)
is that history-based and event-based transport are *two schedules over the
same physics kernels*: banking merely reorders when the XS-lookup, flight,
collision, fission, scatter, and crossing work happens.  This module is
that shared kernel layer.  Each stage is a :class:`StageKernel` with

* a **scalar** apply — one particle at a time, consuming its private
  :class:`~repro.rng.lcg.RandomStream` (the history schedule), and
* a **banked** apply — a vectorized kernel over a
  :class:`~repro.transport.particle.ParticleBank`'s SoA arrays and the
  per-particle :class:`SigmaTables` side-tables, dispatched per material
  tile (:func:`material_tiles`) over the cached MaterialPlans (the event
  schedule).

The two applies of every kernel consume each particle's random-number
stream in **exactly the same order** (the RNG protocol documented in
:mod:`repro.transport.history`), so a history run and an event run with the
same seed produce bit-identical tallies, fission banks, and work counters —
enforced by ``tests/transport/test_equivalence.py``.  A physics change now
lands once, in one kernel, and both schedules pick it up.

Layering: this module sits at the bottom of the transport stack.  It may
import physics, data, rng, and sibling transport modules only — never
execution, serve, cluster, simd, machine, or profiling (checked by
``tools/check_layering.py`` in CI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import SURFACE_NUDGE
from ..data.nuclide import NU_THERMAL_SLOPE
from ..physics.collision import select_channel, select_channel_many
from ..physics.fission import (
    WATT_A,
    WATT_B,
    sample_nu,
    sample_nu_many,
    watt_spectrum,
    watt_spectrum_many,
)
from ..physics.scattering import (
    elastic_scatter,
    elastic_scatter_many,
    rotate_direction,
    rotate_direction_many,
)
from ..physics.thermal import free_gas_scatter, free_gas_scatter_many
from ..rng.lcg import prn_array
from ..rng.sampling import sample_index, sample_index_many
from ..types import CollisionChannel, Reaction
from .context import TransportContext
from .particle import FissionBank, Particle, ParticleBank
from .tally import GlobalTallies

__all__ = [
    "SigmaTables",
    "StageKernel",
    "XSLookupKernel",
    "FlightKernel",
    "CrossingKernel",
    "CollisionChannelKernel",
    "SurvivalKernel",
    "FissionKernel",
    "ScatterKernel",
    "XS_LOOKUP",
    "FLIGHT",
    "CROSSING",
    "COLLISION",
    "SURVIVAL",
    "FISSION",
    "SCATTER",
    "STAGE_KERNELS",
    "TILE_ELEMENTS",
    "collide_banked",
    "group_by_value",
    "material_tiles",
    "tile_slices",
]

_TINY = 1.0e-300

#: Matrix elements (material nuclides x particles) one banked tile may form.
#: Every ``(n_nuclides, N)`` matrix of the XS data path is built a tile at a
#: time on the calculator's reused workspace (66 B an element), so the
#: working set of a generation is this constant, not the bank.  Committed
#: from the sweep over 32 768-262 144 recorded in EXPERIMENTS.md; a
#: measurement of the memory system, not a knob.
TILE_ELEMENTS = 65_536


def group_by_value(values: np.ndarray):
    """Yield ``(value, positions)`` for each distinct value, via one stable
    argsort instead of ``np.unique`` plus a boolean scan per value.

    ``positions`` index into ``values`` and are ascending within each group
    (stable sort), and groups come out in ascending value order — exactly
    the iteration order of the ``np.unique`` + mask idiom it replaces, so
    RNG consumption order is unchanged.  :func:`material_tiles` cuts these
    groups into the tiles every banked kernel below is dispatched over.
    """
    if values.size == 0:
        return
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    start = 0
    for end in [*boundaries.tolist(), sorted_vals.size]:
        yield int(sorted_vals[start]), order[start:end]
        start = end


def tile_slices(n_nuclides: int, n: int):
    """Slices cutting ``n`` particles into runs whose ``n_nuclides``-row
    matrices hold at most :data:`TILE_ELEMENTS` elements (at least one
    particle a tile)."""
    tile = max(1, TILE_ELEMENTS // n_nuclides)
    for start in range(0, n, tile):
        yield slice(start, start + tile)


def material_tiles(
    ctx: TransportContext, mats: np.ndarray, energies: np.ndarray | None = None
):
    """Yield ``(material, positions)`` tile by tile: the dispatch primitive
    of every banked kernel that forms an ``(n_nuclides, N)`` matrix.

    ``mats`` are material ids; ``positions`` index into it, material groups
    in ascending id order, each cut by :func:`tile_slices`.  With
    ``energies`` (aligned with ``mats``) each group is first ordered by a
    stable argsort of its energies, so a tile gathers one narrow band of
    union-grid columns from every nuclide row instead of a random walk
    across all of them.

    Tiling and banding only reorder *which lanes share a call*: each
    particle draws from its own RNG stream, every matrix column is computed
    independently of its neighbours, and the kernels write results by
    absolute bank index — so any tile size and either order give the same
    bits (``tests/transport/test_tiling.py``).
    """
    for mid, pos in group_by_value(mats):
        material = ctx.material(mid)
        if energies is not None:
            pos = pos[np.argsort(energies[pos], kind="stable")]
        for run in tile_slices(material.n_nuclides, pos.size):
            yield material, pos[run]


@dataclass
class SigmaTables:
    """Per-particle macroscopic cross sections, refreshed by the XS-lookup
    stage each cycle — the SoA side-tables every downstream banked kernel
    gathers from.  All arrays are full-bank length; only live lanes are
    meaningful."""

    total: np.ndarray
    capture: np.ndarray
    fission: np.ndarray
    nu_fission: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "SigmaTables":
        return cls(
            total=np.zeros(n),
            capture=np.zeros(n),
            fission=np.zeros(n),
            nu_fission=np.zeros(n),
        )

    def absorption(self, idx: np.ndarray) -> np.ndarray:
        return self.capture[idx] + self.fission[idx]


class StageKernel:
    """Base class: a physics stage with scalar and banked applies."""

    name = "stage"


class XSLookupKernel(StageKernel):
    """Macroscopic cross-section lookup (Algorithm 1, the bottleneck)."""

    name = "xs_lookup"

    def scalar(self, ctx: TransportContext, material, energy: float, stream):
        """One particle's macro XS in ``material`` at ``energy``."""
        return ctx.calculator.scalar(material, energy, stream, ctx.counters)

    def banked(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        alive_idx: np.ndarray,
        sig: SigmaTables,
    ) -> None:
        """Locate the live lanes, then refresh their sigma side-tables."""
        mats = ctx.fast.locate_many(bank.position[alive_idx])
        bank.material[alive_idx] = mats
        # (Source particles start inside; crossings already resolved escapes.)
        self.refresh(ctx, bank, alive_idx, mats, sig)

    def refresh(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        idx: np.ndarray,
        mats: np.ndarray,
        sig: SigmaTables,
    ) -> None:
        """Banked Algorithm 1 over lanes ``idx`` sitting in materials
        ``mats``, one energy-banded tile at a time; results land in ``sig``
        by bank index, so the banding needs no unsort."""
        calc = ctx.calculator
        counters = ctx.counters
        energies = bank.energy[idx]
        for material, pos in material_tiles(ctx, mats, energies):
            lanes = idx[pos]
            states = bank.rng_state[lanes]
            res = calc.banked(
                material, energies[pos], rng_states=states, counters=counters
            )
            bank.rng_state[lanes] = states
            sig.total[lanes] = res["total"]
            sig.capture[lanes] = res["capture"]
            sig.fission[lanes] = res["fission"]
            sig.nu_fission[lanes] = res["nu_fission"]


class FlightKernel(StageKernel):
    """Distance to collision (Eq. 1) vs distance to boundary."""

    name = "flight"

    def scalar(
        self, ctx: TransportContext, particle: Particle, xs
    ) -> tuple[float, float]:
        """Sample the collision distance and ray-trace the boundary
        distance for one particle; returns ``(d_coll, d_bound)``."""
        xi_dist = particle.stream.prn()
        d_coll = -np.log(max(xi_dist, _TINY)) / xs.total
        d_bound = ctx.boundary_distance(particle.position, particle.direction)
        ctx.counters.rn_draws += 1
        ctx.counters.flights += 1
        return d_coll, d_bound

    def banked(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        alive_idx: np.ndarray,
        sig: SigmaTables,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample all collision distances at once and ray-trace all
        boundary distances with the analytic fast geometry.

        Returns ``(pos, dirs, w, d, crossing)``: the gathered position /
        direction / weight columns (each consumer below reads the compacted
        copy instead of re-running the fancy index), the flight distance,
        and the crossing mask.
        """
        counters = ctx.counters
        states, xi = prn_array(bank.rng_state[alive_idx])
        bank.rng_state[alive_idx] = states
        counters.rn_draws += alive_idx.size
        counters.flights += alive_idx.size
        pos = bank.position[alive_idx]
        dirs = bank.direction[alive_idx]
        w = bank.weight[alive_idx]
        d_coll = -np.log(np.maximum(xi, _TINY)) / sig.total[alive_idx]
        d_bound = ctx.fast.distance_many(pos, dirs)
        crossing = d_bound < d_coll
        d = np.where(crossing, d_bound, d_coll)
        return pos, dirs, w, d, crossing


class CrossingKernel(StageKernel):
    """Surface crossing: nudge past the surface, resolve escapes."""

    name = "crossing"

    def scalar(
        self,
        ctx: TransportContext,
        particle: Particle,
        tallies: GlobalTallies,
        d_bound: float,
    ) -> None:
        """Move one particle past the surface and apply the boundary
        condition if it escaped (scoring the leak)."""
        particle.position = ctx.nudge(
            particle.position + d_bound * particle.direction,
            particle.direction,
        )
        if ctx.material_id_at(particle.position) < 0:
            p_new, u_new, alive = ctx.handle_escape(
                particle.position, particle.direction
            )
            if not alive:
                tallies.n_leaks += 1
                particle.alive = False
            else:
                particle.position = p_new
                particle.direction = u_new

    def banked(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        cross_idx: np.ndarray,
        tallies: GlobalTallies,
    ) -> None:
        """Nudge the crossing sub-bank past its surfaces; apply boundary
        conditions to the (rare) escapes scalar-wise for bit-parity with
        the history schedule."""
        bank.position[cross_idx] += SURFACE_NUDGE * bank.direction[cross_idx]
        after = ctx.fast.locate_many(bank.position[cross_idx])
        escaped = cross_idx[after < 0]
        # Escapes are rare (outer box only): scalar BC handling keeps
        # bit-parity with the history loop.
        for j in escaped:
            p_new, u_new, alive = ctx.handle_escape(
                bank.position[j], bank.direction[j]
            )
            if alive:
                bank.position[j] = p_new
                bank.direction[j] = u_new
            else:
                tallies.n_leaks += 1
                bank.alive[j] = False


class CollisionChannelKernel(StageKernel):
    """Analog channel selection (capture / fission / scatter)."""

    name = "collision"

    def scalar(self, ctx: TransportContext, xs, stream):
        """Draw the channel for one collision."""
        channel = select_channel(xs, stream.prn())
        ctx.counters.rn_draws += 1
        return channel

    def banked(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        coll_idx: np.ndarray,
        sig: SigmaTables,
    ) -> np.ndarray:
        """Branch-free channel selection over the collision sub-bank."""
        states, xi_ch = prn_array(bank.rng_state[coll_idx])
        bank.rng_state[coll_idx] = states
        ctx.counters.rn_draws += coll_idx.size
        return select_channel_many(
            sig.total[coll_idx],
            sig.capture[coll_idx],
            sig.fission[coll_idx],
            xi_ch,
        )


class SurvivalKernel(StageKernel):
    """Implicit capture + expected fission sites + Russian roulette."""

    name = "survival"

    def scalar(
        self,
        ctx: TransportContext,
        particle: Particle,
        material,
        xs,
        tallies: GlobalTallies,
        fission_bank: FissionBank,
        k_norm: float,
    ) -> None:
        """One survival-biased collision: no channel draw — capture and
        fission are implicit.  One draw for the expected fission-site
        count, per-site Watt draws, the scatter sequence, then one roulette
        draw only if the reduced weight fell below the cutoff."""
        stream = particle.stream
        counters = ctx.counters
        w = particle.weight
        absorbed = w * xs.absorption / xs.total
        tallies.score_absorption(absorbed, xs.nu_fission, xs.absorption)
        nu_bar = w * xs.nu_fission / xs.total
        n_sites = sample_nu(nu_bar, k_norm, stream.prn())
        counters.rn_draws += 1
        if n_sites:
            counters.fissions += 1
        for s in range(n_sites):
            e_birth = watt_spectrum(WATT_A, WATT_B, stream)
            fission_bank.add(particle.position, e_birth, particle.id, s)
        particle.weight = w * (1.0 - xs.absorption / xs.total)
        SCATTER.scalar(ctx, particle, material)
        if particle.weight < ctx.weight_cutoff:
            xi = stream.prn()
            counters.rn_draws += 1
            if xi < particle.weight / ctx.weight_survival:
                particle.weight = ctx.weight_survival
            else:
                particle.alive = False

    def banked(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        coll: np.ndarray,
        tallies: GlobalTallies,
        fission_bank: FissionBank,
        k_norm: float,
        particle_ids: np.ndarray,
        sig: SigmaTables,
    ) -> None:
        """Vectorized implicit-capture collision stage, mirroring the
        scalar apply draw for draw (site count, per-site Watt, scatter
        sequence, conditional roulette)."""
        counters = ctx.counters
        w = bank.weight[coll]
        sig_a = sig.absorption(coll)
        absorbed = w * sig_a / sig.total[coll]
        tallies.score_absorption_many(absorbed, sig.nu_fission[coll], sig_a)

        # Expected fission sites (no nuclide attribution: nu Sigma_f is
        # already the material aggregate, and Watt parameters are library
        # constants).
        states, xi_nu = prn_array(bank.rng_state[coll])
        bank.rng_state[coll] = states
        counters.rn_draws += coll.size
        nu_bar = w * sig.nu_fission[coll] / sig.total[coll]
        n_sites = sample_nu_many(nu_bar, k_norm, xi_nu)
        counters.fissions += int((n_sites > 0).sum())
        max_sites = int(n_sites.max()) if n_sites.size else 0
        for s in range(max_sites):
            sub = coll[n_sites > s]
            if sub.size == 0:
                break
            e_birth, new_states = watt_spectrum_many(
                WATT_A, WATT_B, bank.rng_state[sub]
            )
            bank.rng_state[sub] = new_states
            fission_bank.add_many(
                bank.position[sub], e_birth, particle_ids[sub], seq=s
            )

        bank.weight[coll] = w * (1.0 - sig_a / sig.total[coll])
        SCATTER.banked(ctx, bank, coll)

        # Russian roulette on the reduced weights.
        rl = coll[bank.weight[coll] < ctx.weight_cutoff]
        if rl.size:
            states, xi = prn_array(bank.rng_state[rl])
            bank.rng_state[rl] = states
            counters.rn_draws += rl.size
            survive = xi < bank.weight[rl] / ctx.weight_survival
            bank.weight[rl[survive]] = ctx.weight_survival
            bank.alive[rl[~survive]] = False


class FissionKernel(StageKernel):
    """Analog fission: nuclide attribution, site counts, Watt energies."""

    name = "fission"

    def scalar(
        self,
        ctx: TransportContext,
        particle: Particle,
        material,
        fission_bank: FissionBank,
        k_norm: float,
    ) -> None:
        """One analog fission: 1 draw for the fissioning nuclide, 1 draw
        for the site count, then per banked site the Watt rejection draws;
        the history ends."""
        calc = ctx.calculator
        stream = particle.stream
        counters = ctx.counters
        weights = calc.attribution_weights(
            material, particle.energy, Reaction.FISSION, counters
        )[:, 0]
        k = sample_index(weights, stream.prn())
        ids, _ = material.resolve(ctx.library)
        nuc = ctx.library[int(ids[k])]
        nu_bar = float(nuc.nu(particle.energy)) * particle.weight
        n_sites = sample_nu(nu_bar, k_norm, stream.prn())
        counters.rn_draws += 2
        for s in range(n_sites):
            e_birth = watt_spectrum(nuc.watt_a, nuc.watt_b, stream)
            fission_bank.add(particle.position, e_birth, particle.id, s)
        particle.alive = False

    def banked(
        self,
        ctx: TransportContext,
        bank: ParticleBank,
        fis: np.ndarray,
        fission_bank: FissionBank,
        k_norm: float,
        particle_ids: np.ndarray,
    ) -> None:
        """Vectorized fission processing per material tile (the caller
        terminates the sub-bank)."""
        calc = ctx.calculator
        counters = ctx.counters
        library = ctx.library
        for material, pos in material_tiles(ctx, bank.material[fis]):
            grp = fis[pos]
            ids, _ = material.resolve(library)
            # A workspace view, used up by the sampling two lines down.
            weights = calc._attribution_block(
                material, bank.energy[grp], Reaction.FISSION, counters
            )
            states, xi_nuc = prn_array(bank.rng_state[grp])
            which = sample_index_many(weights, xi_nuc)
            nuclide_ids = ids[which]
            nu_bar = (
                library.nu0[nuclide_ids] + NU_THERMAL_SLOPE * bank.energy[grp]
            ) * bank.weight[grp]
            states, xi_nu = prn_array(states)
            bank.rng_state[grp] = states
            counters.rn_draws += 2 * grp.size
            n_sites = sample_nu_many(nu_bar, k_norm, xi_nu)

            # Per-site Watt draws, peeled one site-index at a time so each
            # parent stream advances exactly as in the scalar loop.
            max_sites = int(n_sites.max()) if n_sites.size else 0
            for s in range(max_sites):
                sub = grp[n_sites > s]
                if sub.size == 0:
                    break
                # Watt parameters are library-wide constants (all nuclides
                # carry the defaults), so one batched sampler covers the
                # whole group.
                nid0 = int(nuclide_ids[0])
                e_birth, new_states = watt_spectrum_many(
                    float(library.watt_a[nid0]), float(library.watt_b[nid0]),
                    bank.rng_state[sub],
                )
                bank.rng_state[sub] = new_states
                fission_bank.add_many(
                    bank.position[sub], e_birth, particle_ids[sub], seq=s
                )


class ScatterKernel(StageKernel):
    """Scattering: nuclide attribution then S(a,b) / free-gas /
    target-at-rest kinematics, with the energy-cutoff clamp."""

    name = "scatter"

    def scalar(
        self, ctx: TransportContext, particle: Particle, material
    ) -> None:
        """The scalar scatter sequence: 1 draw for the nuclide, then the
        kinematics draws (see the RNG protocol in
        :mod:`repro.transport.history`)."""
        calc = ctx.calculator
        stream = particle.stream
        counters = ctx.counters
        weights = calc.attribution_weights(
            material, particle.energy, Reaction.ELASTIC, counters
        )[:, 0]
        k = sample_index(weights, stream.prn())
        counters.rn_draws += 1
        ids, _ = material.resolve(ctx.library)
        nuc = ctx.library[int(ids[k])]
        sab = ctx.library.sab.get(nuc.name) if calc.use_sab else None
        if sab is not None and particle.energy < sab.cutoff:
            e_out, mu = sab.sample(particle.energy, stream.prn(), stream.prn())
            phi = 2.0 * np.pi * stream.prn()
            particle.direction = rotate_direction(particle.direction, mu, phi)
            particle.energy = e_out
            counters.rn_draws += 3
            counters.sab_samples += 1
        elif particle.energy < ctx.free_gas_cutoff:
            e_out, new_dir = free_gas_scatter(
                particle.energy,
                particle.direction,
                nuc.awr,
                ctx.temperature,
                stream,
            )
            particle.energy = e_out
            particle.direction = new_dir
            counters.rn_draws += 7
        else:
            e_out, mu = elastic_scatter(particle.energy, nuc.awr, stream.prn())
            phi = 2.0 * np.pi * stream.prn()
            particle.direction = rotate_direction(particle.direction, mu, phi)
            particle.energy = e_out
            counters.rn_draws += 2
        if particle.energy < ctx.energy_cutoff:
            particle.energy = ctx.energy_cutoff

    def banked(
        self, ctx: TransportContext, bank: ParticleBank, sct: np.ndarray
    ) -> None:
        """Vectorized scattering: nuclide attribution then the three
        kinematics sub-banks, gathered from the library's side-tables."""
        calc = ctx.calculator
        counters = ctx.counters
        library = ctx.library
        chosen = np.empty(sct.size, dtype=np.int64)  # global nuclide ids

        for material, pos in material_tiles(ctx, bank.material[sct]):
            grp = sct[pos]
            ids, _ = material.resolve(library)
            weights = calc._attribution_block(
                material, bank.energy[grp], Reaction.ELASTIC, counters
            )
            states, xi_nuc = prn_array(bank.rng_state[grp])
            bank.rng_state[grp] = states
            counters.rn_draws += grp.size
            which = sample_index_many(weights, xi_nuc)
            chosen[pos] = ids[which]

        energies = bank.energy[sct]
        # Per-target metadata as gathers out of the library's side-tables — no
        # Python loop over the chosen nuclides.
        if calc.use_sab:
            sab_mask = library.has_sab[chosen] & (
                energies < library.sab_cutoff[chosen]
            )
        else:
            sab_mask = np.zeros(sct.size, dtype=bool)
        fg_mask = (~sab_mask) & (energies < ctx.free_gas_cutoff)
        fast_mask = ~(sab_mask | fg_mask)

        # --- S(alpha, beta) sub-bank (bound thermal scattering).
        if sab_mask.any():
            idx = sct[sab_mask]
            nids = chosen[sab_mask]
            states = bank.rng_state[idx]
            states, xi1 = prn_array(states)
            states, xi2 = prn_array(states)
            states, xi_phi = prn_array(states)
            bank.rng_state[idx] = states
            counters.rn_draws += 3 * idx.size
            counters.sab_samples += idx.size
            # All S(a,b) nuclides in a group share a table in practice (H1);
            # group by nuclide id to stay general.
            for nid in np.unique(nids):
                m = nids == nid
                table = library.sab_tables[int(nid)]
                e_out, mu = table.sample_many(
                    bank.energy[idx[m]], xi1[m], xi2[m]
                )
                bank.direction[idx[m]] = rotate_direction_many(
                    bank.direction[idx[m]], mu, 2.0 * np.pi * xi_phi[m]
                )
                bank.energy[idx[m]] = e_out

        # --- Free-gas sub-bank (thermal motion, no bound table).
        if fg_mask.any():
            idx = sct[fg_mask]
            nids = chosen[fg_mask]
            states = bank.rng_state[idx]
            xi = np.empty((idx.size, 7))
            for c in range(7):
                states, xi[:, c] = prn_array(states)
            bank.rng_state[idx] = states
            counters.rn_draws += 7 * idx.size
            awr = library.awr[nids]
            e_out, dir_out = free_gas_scatter_many(
                bank.energy[idx], bank.direction[idx], awr, ctx.temperature, xi
            )
            bank.energy[idx] = e_out
            bank.direction[idx] = dir_out

        # --- Target-at-rest elastic sub-bank.
        if fast_mask.any():
            idx = sct[fast_mask]
            nids = chosen[fast_mask]
            states = bank.rng_state[idx]
            states, xi_mu = prn_array(states)
            states, xi_phi = prn_array(states)
            bank.rng_state[idx] = states
            counters.rn_draws += 2 * idx.size
            awr = library.awr[nids]
            e_out, mu_lab = elastic_scatter_many(bank.energy[idx], awr, xi_mu)
            bank.direction[idx] = rotate_direction_many(
                bank.direction[idx], mu_lab, 2.0 * np.pi * xi_phi
            )
            bank.energy[idx] = e_out

        # Energy-cutoff clamp (shared by both schedules).
        low = sct[bank.energy[sct] < ctx.energy_cutoff]
        bank.energy[low] = ctx.energy_cutoff


#: Module-level kernel singletons — the one set of physics both schedules
#: run.  ``SURVIVAL`` and the drivers reference these by name.
XS_LOOKUP = XSLookupKernel()
FLIGHT = FlightKernel()
CROSSING = CrossingKernel()
COLLISION = CollisionChannelKernel()
SURVIVAL = SurvivalKernel()
FISSION = FissionKernel()
SCATTER = ScatterKernel()

STAGE_KERNELS: tuple[StageKernel, ...] = (
    XS_LOOKUP, FLIGHT, CROSSING, COLLISION, SURVIVAL, FISSION, SCATTER
)


def collide_banked(
    ctx: TransportContext,
    bank: ParticleBank,
    coll_idx: np.ndarray,
    sig: SigmaTables,
    tallies: GlobalTallies,
    fission_bank: FissionBank,
    k_norm: float,
    particle_ids: np.ndarray,
) -> None:
    """The collision block of every banked schedule (event and delta):
    score the collisions of ``coll_idx``, then survival-bias them, or select
    channels and run the gathered capture / fission / scatter sub-banks —
    the paper's gather-scatter-compress structure for conditionals."""
    tallies.score_collision_many(
        bank.weight[coll_idx], sig.nu_fission[coll_idx], sig.total[coll_idx]
    )
    ctx.counters.collisions += coll_idx.size

    if ctx.survival_biasing:
        SURVIVAL.banked(
            ctx, bank, coll_idx, tallies, fission_bank, k_norm,
            particle_ids, sig,
        )
        return

    channels = COLLISION.banked(ctx, bank, coll_idx, sig)

    # Capture: absorb and terminate.
    cap = coll_idx[channels == int(CollisionChannel.CAPTURE)]
    if cap.size:
        tallies.score_absorption_many(
            bank.weight[cap], sig.nu_fission[cap], sig.absorption(cap)
        )
        bank.alive[cap] = False

    # Fission: absorb, bank sites, terminate.
    fis = coll_idx[channels == int(CollisionChannel.FISSION)]
    if fis.size:
        tallies.score_absorption_many(
            bank.weight[fis], sig.nu_fission[fis], sig.absorption(fis)
        )
        ctx.counters.fissions += fis.size
        FISSION.banked(ctx, bank, fis, fission_bank, k_norm, particle_ids)
        bank.alive[fis] = False

    # Scatter: pick nuclide, apply kinematics (clamp included).
    sct = coll_idx[channels == int(CollisionChannel.SCATTER)]
    if sct.size:
        SCATTER.banked(ctx, bank, sct)
