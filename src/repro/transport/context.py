"""Shared transport context: geometry adapter, physics engine, settings.

Both transport loops (history and event) operate against a
:class:`TransportContext`, which binds together the model geometry (CSG or
the vectorized fast path), the material registry, the cross-section engine,
and the work counters.  Keeping this in one place guarantees the two loops
see *identical* physics and geometry, which is what makes them bit-comparable
(the strict RNG protocol is documented in :mod:`repro.transport.history`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import ENERGY_MIN, KT_ROOM, SURFACE_NUDGE
from ..data.library import NuclideLibrary
from ..data.unionized import UnionizedGrid
from ..errors import ExecutionError
from ..geometry.hoogenboom import (
    MAT_OUTSIDE,
    FastCoreGeometry,
    HMModel,
    build_hm_geometry,
    build_pincell_geometry,
    pattern_from_rows,
)
from ..physics.macroxs import XSCalculator
from ..work import WorkCounters

__all__ = ["TransportContext", "FREE_GAS_CUTOFF"]

#: Below this energy [MeV] (the 400 kT rule at room temperature), elastic
#: scattering off nuclides without an S(alpha, beta) table uses the free-gas
#: thermal treatment.
FREE_GAS_CUTOFF = 400.0 * KT_ROOM


@dataclass
class TransportContext:
    """Everything a transport loop needs, bound once per simulation.

    Attributes
    ----------
    model:
        The built geometry model (full core or pin cell).
    library, union, calculator:
        Nuclear data and the XS engine (whose ``use_sab``/``use_urr`` flags
        select full or stripped physics).
    fast:
        The vectorized analytic tracker matching ``model``.
    use_fast_geometry:
        When true (default), the *scalar* history loop also uses the fast
        tracker's scalar wrappers, making history and event runs follow
        byte-identical geometry arithmetic.  Set false to exercise the CSG
        engine end-to-end.
    """

    model: HMModel
    library: NuclideLibrary
    union: UnionizedGrid | None
    calculator: XSCalculator
    fast: FastCoreGeometry
    use_fast_geometry: bool = True
    master_seed: int = 1
    energy_cutoff: float = ENERGY_MIN
    free_gas_cutoff: float = FREE_GAS_CUTOFF
    #: Implicit capture + Russian roulette instead of analog absorption.
    survival_biasing: bool = False
    #: Roulette threshold and post-roulette weight for survival biasing.
    weight_cutoff: float = 0.25
    weight_survival: float = 1.0
    counters: WorkCounters = field(default_factory=WorkCounters)

    @classmethod
    def create(
        cls,
        library: NuclideLibrary,
        *,
        pincell: bool = False,
        union: UnionizedGrid | None = None,
        use_sab: bool = True,
        use_urr: bool = True,
        use_fast_geometry: bool = True,
        master_seed: int = 1,
        survival_biasing: bool = False,
        boron_ppm: float = 600.0,
        enrichment_scale: float = 1.0,
        fuel_overrides=(),
        core_pattern=(),
    ) -> "TransportContext":
        """Build a context for the library's own model (small/large).

        ``boron_ppm``, ``enrichment_scale``, ``fuel_overrides``, and
        ``core_pattern`` are the scenario system's material/lattice knobs;
        the defaults reproduce the canonical Hoogenboom-Martin model
        bit-for-bit.  ``core_pattern`` (rows of ``F``/``W``) only applies
        to full-core geometry.
        """
        pattern = pattern_from_rows(core_pattern) if core_pattern else None
        if pincell:
            model = build_pincell_geometry(
                library.model,
                boron_ppm,
                enrichment_scale=enrichment_scale,
                fuel_overrides=fuel_overrides,
            )
        else:
            model = build_hm_geometry(
                library.model,
                boron_ppm,
                pattern=pattern,
                enrichment_scale=enrichment_scale,
                fuel_overrides=fuel_overrides,
            )
        calculator = XSCalculator(library, union, use_sab=use_sab, use_urr=use_urr)
        return cls(
            model=model,
            library=library,
            union=union,
            calculator=calculator,
            fast=FastCoreGeometry(pincell=pincell, pattern=pattern),
            use_fast_geometry=use_fast_geometry,
            master_seed=master_seed,
            survival_biasing=survival_biasing,
        )

    @property
    def temperature(self) -> float:
        return self.library.config.temperature

    # -- Geometry adapter (scalar) ------------------------------------------

    def material_id_at(self, p: np.ndarray) -> int:
        """Fast-path material id at a point (-1 outside)."""
        if self.use_fast_geometry:
            return self.fast.locate(p)
        loc = self.model.geometry.locate(p)
        if loc is None:
            return MAT_OUTSIDE
        for i, mat in enumerate(self.model.materials):
            if loc.material is mat:
                return i
        raise ExecutionError(f"unknown material {loc.material.name!r}")

    def boundary_distance(self, p: np.ndarray, u: np.ndarray) -> float:
        """Distance to the nearest candidate surface crossing."""
        if self.use_fast_geometry:
            return self.fast.distance(p, u)
        return self.model.geometry.distance_to_boundary(p, u)

    def handle_escape(
        self, p: np.ndarray, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Apply the outer boundary condition to an escaped particle."""
        return self.model.geometry.handle_boundary(p, u)

    # -- Convenience ----------------------------------------------------------

    def material(self, mat_id: int):
        return self.model.materials[mat_id]

    def nudge(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        return p + SURFACE_NUDGE * u
