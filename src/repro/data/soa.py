"""The array-of-structs layout: the ablation copy.

The paper's single most important optimization for the banked kernels was the
**AoS -> SoA transformation** of the Fortran derived-type cross-section data.
The library *is* the SoA (:class:`~repro.data.library.NuclideLibrary` owns the
flat arrays); :class:`AoSLibrary` is the one deliberate second layout, copied
out of them so the effect is measurable (the paper's design-choice ablation
#1): one interleaved structured-dtype record array per nuclide (energy and the
four cross sections adjacent in memory per point).  Field access is strided
(stride = record size), the layout compilers get from arrays of structs, which
defeats unit-stride vector loads.
"""

from __future__ import annotations

import numpy as np

from ..types import N_REACTIONS, Reaction
from .library import NuclideLibrary

__all__ = ["AoSLibrary"]

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


class AoSLibrary:
    """Interleaved array-of-structs layout (the ablation baseline).

    Per-nuclide record arrays with dtype :data:`AOS_DTYPE`; every lookup
    touches one 40-byte record, and vector lookups over a bank become
    strided/gathered field accesses.
    """

    def __init__(self, library: NuclideLibrary) -> None:
        self.library = library
        flat = np.empty(library.energy.shape[0], dtype=AOS_DTYPE)
        flat["energy"] = library.energy
        for reaction, field in _FIELD_BY_REACTION.items():
            flat[field] = library.xs[reaction]
        #: One record array per nuclide, cut from the interleaved copy at the
        #: library's offsets.
        self.records: list[np.ndarray] = np.split(flat, library.offsets[1:-1])

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
        """Same contract as :meth:`NuclideLibrary.micro_xs_gather`, but every
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
