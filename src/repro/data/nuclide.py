"""Per-nuclide continuous-energy cross-section tables.

A :class:`Nuclide` has a private energy grid (as in ACE data, grids differ
per nuclide) and a dense ``(N_REACTIONS, n_points)`` cross-section matrix.
Once it joins a :class:`~repro.data.library.NuclideLibrary` both are views of
the library's flat arrays — the struct-of-arrays layout the paper's AoS→SoA
optimization produces — so nothing here may assume they are contiguous.
Lookups are linear-linear interpolations after a binary grid search; both a
scalar path (history-based transport) and a vectorized path (banked kernels)
are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..types import N_REACTIONS, Reaction

__all__ = ["Nuclide", "NU_THERMAL_SLOPE"]

#: Slope of the (linearized) fission neutron multiplicity nu(E) = nu0 + k*E.
NU_THERMAL_SLOPE = 0.1


@dataclass
class Nuclide:
    """Continuous-energy data for one nuclide.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"U238"``.
    awr:
        Atomic weight ratio (target mass / neutron mass); drives elastic
        kinematics and Doppler width.
    energy:
        Strictly increasing grid [MeV], shape ``(n_points,)``.
    xs:
        Cross sections [barns], shape ``(N_REACTIONS, n_points)``; rows are
        indexed by :class:`repro.types.Reaction`.
    fissionable:
        Whether the fission channel is active.
    nu0:
        Fission multiplicity at thermal energy; ``nu(E) = nu0 +
        NU_THERMAL_SLOPE * E`` [per MeV].
    watt_a, watt_b:
        Watt fission-spectrum parameters [MeV], [1/MeV].
    has_urr, urr_emin, urr_emax:
        Unresolved-resonance-range flag and bounds [MeV]; probability tables
        live in the library's URR registry.
    has_sab:
        Whether an S(alpha, beta) thermal table overrides free-gas scattering
        below the thermal cutoff (e.g. H in H2O).
    """

    name: str
    awr: float
    energy: np.ndarray
    xs: np.ndarray
    fissionable: bool = False
    nu0: float = 2.43
    watt_a: float = 0.988
    watt_b: float = 2.249
    has_urr: bool = False
    urr_emin: float = 0.0
    urr_emax: float = 0.0
    has_sab: bool = False

    def __post_init__(self) -> None:
        self.energy = np.asarray(self.energy, dtype=np.float64)
        self.xs = np.asarray(self.xs, dtype=np.float64)
        if self.energy.ndim != 1 or self.energy.size < 2:
            raise DataError(f"{self.name}: energy grid needs >= 2 points")
        if np.any(np.diff(self.energy) <= 0):
            raise DataError(f"{self.name}: energy grid must be strictly increasing")
        if self.xs.shape != (N_REACTIONS, self.energy.size):
            raise DataError(
                f"{self.name}: xs shape {self.xs.shape} != "
                f"({N_REACTIONS}, {self.energy.size})"
            )
        if not np.all(np.isfinite(self.xs)):
            raise DataError(f"{self.name}: non-finite cross section")
        if not np.all(np.isfinite(self.energy)):
            raise DataError(f"{self.name}: non-finite energy grid")
        if np.any(self.xs < 0):
            raise DataError(f"{self.name}: negative cross section")

    # -- Introspection --------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of energy grid points."""
        return int(self.energy.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the grid + XS matrix (memory-model input)."""
        return int(self.energy.nbytes + self.xs.nbytes)

    def nu(self, energy: np.ndarray | float) -> np.ndarray | float:
        """Fission neutron multiplicity at the given energy [MeV]."""
        return self.nu0 + NU_THERMAL_SLOPE * np.asarray(energy)

    # -- Grid search -----------------------------------------------------

    def find_index(self, energy: float) -> int:
        """Binary-search the grid: index ``i`` with ``E[i] <= energy < E[i+1]``.

        Energies outside the grid clamp to the first/last interval, as
        production MC codes do.
        """
        i = int(np.searchsorted(self.energy, energy, side="right")) - 1
        return min(max(i, 0), self.n_points - 2)

    def find_index_many(self, energies: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`find_index`."""
        idx = np.searchsorted(self.energy, energies, side="right") - 1
        return np.clip(idx, 0, self.n_points - 2)

    # -- Lookups ----------------------------------------------------------

    def micro_xs(self, energy: float, index: int | None = None) -> np.ndarray:
        """All reaction cross sections at one energy [barns].

        ``index`` may carry a precomputed grid index (e.g. from a unionized
        grid) to skip the binary search — the optimization the unionized
        energy grid exists to enable.
        """
        i = self.find_index(energy) if index is None else index
        e0, e1 = self.energy[i], self.energy[i + 1]
        f = (energy - e0) / (e1 - e0)
        f = min(max(f, 0.0), 1.0)
        return (1.0 - f) * self.xs[:, i] + f * self.xs[:, i + 1]

    def micro_xs_many(
        self,
        energies: np.ndarray,
        indices: np.ndarray | None = None,
        reactions: tuple[Reaction, ...] | None = None,
    ) -> np.ndarray:
        """Vectorized lookup: shape ``(n_reactions_selected, len(energies))``.

        This is the SoA kernel: one fused interpolation across all requested
        energies, with gather indexing standing in for the hardware
        gather instructions the MIC implementation relies on.
        """
        energies = np.asarray(energies, dtype=np.float64)
        idx = self.find_index_many(energies) if indices is None else indices
        e0 = self.energy[idx]
        e1 = self.energy[idx + 1]
        f = np.clip((energies - e0) / (e1 - e0), 0.0, 1.0)
        rows = (
            slice(None)
            if reactions is None
            else np.array([int(r) for r in reactions])
        )
        lo = self.xs[rows][:, idx]
        hi = self.xs[rows][:, idx + 1]
        return (1.0 - f) * lo + f * hi

    def total_xs(self, energy: float) -> float:
        """Total microscopic cross section at one energy [barns]."""
        return float(self.micro_xs(energy)[Reaction.TOTAL])
