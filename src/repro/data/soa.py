"""Struct-of-arrays and array-of-structs library layouts.

The paper's single most important optimization for the banked kernels was the
**AoS -> SoA transformation** of the Fortran derived-type cross-section data.
This module provides both layouts over the same library so the effect is
measurable (the paper's design-choice ablation #1):

* :class:`SoALibrary` — all nuclide grids concatenated into flat contiguous
  arrays (one per quantity) with per-nuclide offsets.  Vectorized lookups
  become pure gathers: unit-stride within a quantity, SIMD-friendly.
* :class:`AoSLibrary` — one interleaved structured-dtype record array per
  nuclide (energy and the four cross sections adjacent in memory per point).
  Field access is strided (stride = record size), the layout compilers get
  from arrays of structs, which defeats unit-stride vector loads.
"""

from __future__ import annotations

import numpy as np

from ..types import N_REACTIONS, Reaction
from .library import NuclideLibrary

__all__ = ["SoALibrary", "AoSLibrary"]

#: Interleaved per-point record: the AoS layout.
AOS_DTYPE = np.dtype(
    [
        ("energy", np.float64),
        ("total", np.float64),
        ("elastic", np.float64),
        ("capture", np.float64),
        ("fission", np.float64),
    ]
)

_FIELD_BY_REACTION = {
    Reaction.TOTAL: "total",
    Reaction.ELASTIC: "elastic",
    Reaction.CAPTURE: "capture",
    Reaction.FISSION: "fission",
}


class SoALibrary:
    """Flat struct-of-arrays view of a :class:`NuclideLibrary`.

    Attributes
    ----------
    offsets:
        ``(n_nuclides + 1,)`` start offsets of each nuclide's grid within the
        flat arrays; nuclide ``i`` owns ``[offsets[i], offsets[i+1])``.
    energy:
        All grids concatenated, shape ``(total_points,)``.
    xs:
        All cross sections concatenated, shape ``(N_REACTIONS, total_points)``.
    awr, nu0, fissionable:
        Per-nuclide scalars as dense arrays.
    has_sab, sab_cutoff, watt_a, watt_b, has_urr, urr_emin, urr_emax:
        Per-nuclide metadata side-tables.  The event loop's collision stages
        index these with *arrays of chosen nuclide ids*, so per-particle
        questions like "does my target have an S(alpha, beta) table, and am I
        below its cutoff?" are single gathers instead of Python loops over
        the library.
    sab_tables:
        Per-nuclide S(alpha, beta) table references (``None`` where absent),
        so kernels can reach a table by dense id without name lookups.
    """

    def __init__(self, library: NuclideLibrary) -> None:
        self.library = library
        sizes = np.array([n.n_points for n in library], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.energy = np.concatenate([n.energy for n in library])
        self.xs = np.concatenate([n.xs for n in library], axis=1)
        self.awr = np.array([n.awr for n in library])
        self.nu0 = np.array([n.nu0 for n in library])
        self.fissionable = np.array([n.fissionable for n in library])
        self.has_sab = np.array([n.has_sab for n in library], dtype=bool)
        self.sab_tables = [
            library.sab[n.name] if n.has_sab else None for n in library
        ]
        self.sab_cutoff = np.array(
            [
                library.sab[n.name].cutoff if n.has_sab else 0.0
                for n in library
            ]
        )
        self.watt_a = np.array([n.watt_a for n in library])
        self.watt_b = np.array([n.watt_b for n in library])
        self.has_urr = np.array([n.has_urr for n in library], dtype=bool)
        self.urr_emin = np.array([n.urr_emin for n in library])
        self.urr_emax = np.array([n.urr_emax for n in library])

    @property
    def n_nuclides(self) -> int:
        return len(self.library)

    @property
    def total_points(self) -> int:
        return int(self.offsets[-1])

    @property
    def nbytes(self) -> int:
        return int(
            self.offsets.nbytes
            + self.energy.nbytes
            + self.xs.nbytes
            + self.awr.nbytes
            + self.nu0.nbytes
            + self.fissionable.nbytes
            + self.has_sab.nbytes
            + self.sab_cutoff.nbytes
            + self.watt_a.nbytes
            + self.watt_b.nbytes
            + self.has_urr.nbytes
            + self.urr_emin.nbytes
            + self.urr_emax.nbytes
        )

    def micro_xs_gather(
        self,
        nuclide_id: int,
        energies: np.ndarray,
        local_indices: np.ndarray,
    ) -> np.ndarray:
        """Vectorized micro-XS for one nuclide across a bank.

        ``local_indices`` are interval indices within the nuclide's own grid
        (e.g. from the unionized grid).  Returns
        ``(N_REACTIONS, n)``.  Unit-stride loads within each reaction row —
        the SoA payoff.
        """
        base = self.offsets[nuclide_id]
        idx = base + np.asarray(local_indices, dtype=np.int64)
        e0 = self.energy[idx]
        e1 = self.energy[idx + 1]
        f = np.clip((energies - e0) / (e1 - e0), 0.0, 1.0)
        return (1.0 - f) * self.xs[:, idx] + f * self.xs[:, idx + 1]

    def micro_total_across_nuclides(
        self, energy: float, local_indices: np.ndarray
    ) -> np.ndarray:
        """Total micro-XS of *every* nuclide at one energy.

        ``local_indices`` is the unionized grid's answer for one union point
        (one interval index per nuclide).  This is the gather pattern of
        vectorizing the *outer* (particle) loop transposed: one particle,
        all nuclides at once.
        """
        idx = self.offsets[:-1] + np.asarray(local_indices, dtype=np.int64)
        e0 = self.energy[idx]
        e1 = self.energy[idx + 1]
        f = np.clip((energy - e0) / (e1 - e0), 0.0, 1.0)
        row = self.xs[Reaction.TOTAL]
        return (1.0 - f) * row[idx] + f * row[idx + 1]


class AoSLibrary:
    """Interleaved array-of-structs layout (the ablation baseline).

    Per-nuclide record arrays with dtype :data:`AOS_DTYPE`; every lookup
    touches one 40-byte record, and vector lookups over a bank become
    strided/gathered field accesses.
    """

    def __init__(self, library: NuclideLibrary) -> None:
        self.library = library
        self.records: list[np.ndarray] = []
        for nuc in library:
            rec = np.empty(nuc.n_points, dtype=AOS_DTYPE)
            rec["energy"] = nuc.energy
            rec["total"] = nuc.xs[Reaction.TOTAL]
            rec["elastic"] = nuc.xs[Reaction.ELASTIC]
            rec["capture"] = nuc.xs[Reaction.CAPTURE]
            rec["fission"] = nuc.xs[Reaction.FISSION]
            self.records.append(rec)

    @property
    def n_nuclides(self) -> int:
        return len(self.records)

    @property
    def nbytes(self) -> int:
        return int(sum(rec.nbytes for rec in self.records))

    def micro_xs_gather(
        self,
        nuclide_id: int,
        energies: np.ndarray,
        local_indices: np.ndarray,
    ) -> np.ndarray:
        """Same contract as :meth:`SoALibrary.micro_xs_gather`, but every
        field access is a strided gather out of interleaved records."""
        rec = self.records[nuclide_id]
        idx = np.asarray(local_indices, dtype=np.int64)
        e0 = rec["energy"][idx]
        e1 = rec["energy"][idx + 1]
        f = np.clip((energies - e0) / (e1 - e0), 0.0, 1.0)
        out = np.empty((N_REACTIONS, energies.shape[0]))
        for r, field in _FIELD_BY_REACTION.items():
            out[r] = (1.0 - f) * rec[field][idx] + f * rec[field][idx + 1]
        return out
