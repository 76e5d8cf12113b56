"""Nuclear-data substrate: synthetic continuous-energy libraries.

Replaces the ENDF/ACE data the paper used (see DESIGN.md §2) with
statistically realistic synthetic equivalents: resonance ladders
(:mod:`~repro.data.resonance`), Doppler broadening
(:mod:`~repro.data.doppler`), per-nuclide tables
(:mod:`~repro.data.nuclide`), Hoogenboom-Martin libraries
(:mod:`~repro.data.library` — the library is the struct-of-arrays store
every consumer reads; :mod:`~repro.data.soa` holds the array-of-structs
ablation copy), the unionized energy grid
(:mod:`~repro.data.unionized`), URR probability tables
(:mod:`~repro.data.urr`), S(alpha, beta) thermal tables
(:mod:`~repro.data.sab`), the windowed multipole representation
(:mod:`~repro.data.multipole`), few-group condensation
(:mod:`~repro.data.multigroup`), and ``.npz`` serialization
(:mod:`~repro.data.io`).
"""

from .doppler import chi, doppler_zeta, faddeeva, psi, psi_chi
from .library import (
    CLAD_NUCLIDES,
    HM_SMALL_FUEL,
    WATER_NUCLIDES,
    LibraryConfig,
    NuclideLibrary,
    build_library,
    build_nuclide,
    fuel_nuclide_names,
    library_fingerprint,
)
from .io import load_library, save_library
from .multigroup import GroupStructure, MultigroupXS, condense
from .multipole import MultipoleData, build_multipole
from .nuclide import Nuclide
from .resonance import (
    ResonanceLadder,
    build_energy_grid,
    reconstruct_xs,
    sample_ladder,
)
from .sab import SabTable, build_sab_table
from .unionized import UnionizedGrid
from .urr import URRTable, build_urr_table

__all__ = [
    "chi",
    "doppler_zeta",
    "faddeeva",
    "psi",
    "psi_chi",
    "CLAD_NUCLIDES",
    "HM_SMALL_FUEL",
    "WATER_NUCLIDES",
    "LibraryConfig",
    "NuclideLibrary",
    "build_library",
    "build_nuclide",
    "fuel_nuclide_names",
    "library_fingerprint",
    "load_library",
    "save_library",
    "GroupStructure",
    "MultigroupXS",
    "condense",
    "MultipoleData",
    "build_multipole",
    "Nuclide",
    "ResonanceLadder",
    "build_energy_grid",
    "reconstruct_xs",
    "sample_ladder",
    "SabTable",
    "build_sab_table",
    "UnionizedGrid",
    "URRTable",
    "build_urr_table",
]
