"""Particle representations: AoS objects and the SoA particle bank.

The history-based loop tracks one :class:`Particle` (array-of-structs
object) at a time; the event-based loop operates on a :class:`ParticleBank`
whose state lives in contiguous struct-of-arrays NumPy buffers.  Conversion
between the two (:meth:`ParticleBank.from_particles`,
:meth:`ParticleBank.to_particles`) *is* the paper's "banking" operation whose
cost Table II measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng.lcg import DEFAULT_SEED, RandomStream, particle_seeds
from ..types import EventKind

__all__ = ["Particle", "ParticleBank", "FissionSite", "FissionBank"]


@dataclass
class Particle:
    """One neutron history (AoS form, used by the history-based loop)."""

    id: int
    position: np.ndarray
    direction: np.ndarray
    energy: float
    weight: float = 1.0
    alive: bool = True
    stream: RandomStream = field(default_factory=RandomStream)

    @classmethod
    def from_source(
        cls,
        pid: int,
        position: np.ndarray,
        energy: float,
        master_seed: int = DEFAULT_SEED,
    ) -> "Particle":
        """Birth a particle: its stream is positioned at its history's
        reserved stride, and the first two draws pick an isotropic
        direction (the shared RNG protocol's birth step)."""
        stream = RandomStream()
        stream.set_particle(master_seed, pid)
        mu = 2.0 * stream.prn() - 1.0
        phi = 2.0 * np.pi * stream.prn()
        s = np.sqrt(max(0.0, 1.0 - mu * mu))
        direction = np.array([s * np.cos(phi), s * np.sin(phi), mu])
        return cls(
            id=pid,
            position=np.asarray(position, dtype=np.float64).copy(),
            direction=direction,
            energy=float(energy),
            stream=stream,
        )


class ParticleBank:
    """Struct-of-arrays state for a bank of particles.

    Attributes (all length ``n`` unless noted)
    ------------------------------------------
    position, direction:
        ``(n, 3)`` float64.
    energy, weight:
        float64.
    rng_state:
        uint64 per-particle LCG states.
    alive:
        bool mask.
    material:
        Fast-geometry material id at the current position (refreshed by the
        event loop's lookup stage).
    event:
        Current :class:`repro.types.EventKind` tag per particle.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.position = np.zeros((n, 3))
        self.direction = np.zeros((n, 3))
        self.energy = np.zeros(n)
        self.weight = np.ones(n)
        self.rng_state = np.zeros(n, dtype=np.uint64)
        self.alive = np.ones(n, dtype=bool)
        self.material = np.full(n, -1, dtype=np.int64)
        self.event = np.full(n, int(EventKind.XS_LOOKUP), dtype=np.int64)

    # -- Construction -----------------------------------------------------------

    @classmethod
    def from_source(
        cls,
        positions: np.ndarray,
        energies: np.ndarray,
        first_id: int = 0,
        master_seed: int = DEFAULT_SEED,
    ) -> "ParticleBank":
        """Birth a bank of particles (vectorized twin of
        :meth:`Particle.from_source`, drawing the same two birth variates
        from the same per-history streams)."""
        positions = np.asarray(positions, dtype=np.float64)
        energies = np.asarray(energies, dtype=np.float64)
        n = positions.shape[0]
        bank = cls(n)
        bank.position[:] = positions
        bank.energy[:] = energies
        ids = (first_id + np.arange(n)).astype(np.uint64)
        states = particle_seeds(master_seed, ids)
        from ..rng.lcg import prn_array  # local to avoid cycle at import time

        states, xi1 = prn_array(states)
        states, xi2 = prn_array(states)
        bank.rng_state[:] = states
        mu = 2.0 * xi1 - 1.0
        phi = 2.0 * np.pi * xi2
        s = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
        bank.direction[:, 0] = s * np.cos(phi)
        bank.direction[:, 1] = s * np.sin(phi)
        bank.direction[:, 2] = mu
        return bank

    @classmethod
    def from_particles(cls, particles: list[Particle]) -> "ParticleBank":
        """Bank AoS particles into SoA arrays — the banking operation."""
        n = len(particles)
        bank = cls(n)
        for i, p in enumerate(particles):
            bank.position[i] = p.position
            bank.direction[i] = p.direction
            bank.energy[i] = p.energy
            bank.weight[i] = p.weight
            bank.alive[i] = p.alive
            bank.rng_state[i] = p.stream.seed
        return bank

    def to_particles(self) -> list[Particle]:
        """Un-bank: SoA arrays back to AoS particle objects."""
        out = []
        for i in range(self.n):
            out.append(
                Particle(
                    id=i,
                    position=self.position[i].copy(),
                    direction=self.direction[i].copy(),
                    energy=float(self.energy[i]),
                    weight=float(self.weight[i]),
                    alive=bool(self.alive[i]),
                    stream=RandomStream(seed=int(self.rng_state[i])),
                )
            )
        return out

    # -- Introspection -----------------------------------------------------------

    @property
    def n_alive(self) -> int:
        return int(self.alive.sum())

    @property
    def nbytes(self) -> int:
        """Actual bytes of the SoA buffers (the *modelled* per-particle
        record of Table II, which includes per-nuclide caches, lives in
        :mod:`repro.machine.memory`)."""
        return int(
            self.position.nbytes
            + self.direction.nbytes
            + self.energy.nbytes
            + self.weight.nbytes
            + self.rng_state.nbytes
            + self.alive.nbytes
            + self.material.nbytes
            + self.event.nbytes
        )


@dataclass
class FissionSite:
    """A banked fission site: birthplace of a next-generation neutron."""

    position: np.ndarray
    energy: float


class FissionBank:
    """Append-only bank of fission sites, sampled into the next generation.

    Sites carry their parent particle id and per-parent sequence number, and
    all reads use the canonical ``(parent, seq)`` ordering — so the bank's
    contents are identical whether histories were tracked one at a time
    (history loop) or in vectorized stages (event loop), which bank sites in
    a different raw order.

    Storage is chunked: each ``add_many`` appends whole arrays (the event
    loop banks a vector of sites per call), so banking is O(1) Python work
    per call instead of a per-site loop; reads concatenate and apply the
    canonical ordering.
    """

    def __init__(self) -> None:
        self._pos_chunks: list[np.ndarray] = []
        self._energy_chunks: list[np.ndarray] = []
        self._parent_chunks: list[np.ndarray] = []
        self._seq_chunks: list[np.ndarray] = []
        self._n = 0

    def add(
        self, position: np.ndarray, energy: float, parent: int = 0, seq: int = 0
    ) -> None:
        self._pos_chunks.append(
            np.asarray(position, dtype=np.float64).reshape(1, 3).copy()
        )
        self._energy_chunks.append(np.array([float(energy)]))
        self._parent_chunks.append(np.array([int(parent)], dtype=np.int64))
        self._seq_chunks.append(np.array([int(seq)], dtype=np.int64))
        self._n += 1

    def add_many(
        self,
        positions: np.ndarray,
        energies: np.ndarray,
        parents: np.ndarray | None = None,
        seq: int = 0,
    ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        if n == 0:
            return
        if parents is None:
            parents = np.zeros(n, dtype=np.int64)
        self._pos_chunks.append(positions.copy())
        self._energy_chunks.append(
            np.asarray(energies, dtype=np.float64).copy()
        )
        self._parent_chunks.append(np.asarray(parents, dtype=np.int64).copy())
        self._seq_chunks.append(np.full(n, int(seq), dtype=np.int64))
        self._n += n

    def absorb(self, other: "FissionBank") -> None:
        """Append every site of ``other`` (chunk references, no copies).

        Because all reads apply the canonical ``(parent, seq)`` ordering
        and parents are *global* particle ids, absorbing per-rank or
        per-slice banks in any order reproduces the serial run's bank
        exactly — the primitive behind the distributed driver's bank
        merge.
        """
        self._pos_chunks.extend(other._pos_chunks)
        self._energy_chunks.extend(other._energy_chunks)
        self._parent_chunks.extend(other._parent_chunks)
        self._seq_chunks.extend(other._seq_chunks)
        self._n += other._n

    def __len__(self) -> int:
        return self._n

    def _order(self) -> np.ndarray:
        parents = np.concatenate(self._parent_chunks)
        seqs = np.concatenate(self._seq_chunks)
        return np.argsort(parents * 1_000_000 + seqs, kind="stable")

    @property
    def positions(self) -> np.ndarray:
        if self._n == 0:
            return np.empty((0, 3))
        return np.concatenate(self._pos_chunks, axis=0)[self._order()]

    @property
    def energies(self) -> np.ndarray:
        if self._n == 0:
            return np.empty(0)
        return np.concatenate(self._energy_chunks)[self._order()]

    def sample_source(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resample exactly ``n`` sites (with replacement if the bank is
        short, a random subset if long) — the generation-to-generation
        population control of the power iteration."""
        if len(self) == 0:
            raise ValueError("fission bank is empty — source died out")
        idx = rng.integers(0, len(self), size=n) if len(self) != n else np.arange(n)
        if len(self) > n:
            idx = rng.choice(len(self), size=n, replace=False)
        pos = self.positions[idx]
        en = self.energies[idx]
        return pos, en
