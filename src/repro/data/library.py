"""Assembly of full nuclide libraries for the Hoogenboom-Martin models.

The paper uses two data sets:

* **H.M. Small** — the original Hoogenboom-Martin fuel with 34 nuclides (a
  mix of actinides, minor actinides, and key fission products);
* **H.M. Large** — a higher-fidelity fuel with 320 nuclides.

Both also need moderator (H, O, B) and cladding (natural Zr) nuclides.  The
library builder draws each nuclide's resonance ladder deterministically from
the library seed and the nuclide name, reconstructs pointwise cross sections,
and attaches URR probability tables (actinides) and an S(alpha, beta) thermal
table (H-1 in water).

:class:`LibraryConfig` controls the data volume: the ``tiny`` preset keeps
unit tests in the millisecond range, while the ``default`` preset produces
paper-shaped grids (thousands of points per nuclide).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..errors import DataError
from ..types import N_REACTIONS, Reaction
from .nuclide import Nuclide
from .resonance import build_energy_grid, reconstruct_into, sample_ladder
from .sab import SabTable, build_sab_table
from .urr import URRTable, build_urr_table

__all__ = [
    "LibraryConfig",
    "NuclideLibrary",
    "build_library",
    "build_nuclide",
    "fuel_nuclide_names",
    "library_fingerprint",
    "HM_SMALL_FUEL",
    "CLAD_NUCLIDES",
    "WATER_NUCLIDES",
]

#: The 34-nuclide Hoogenboom-Martin fuel: 18 actinides + 16 key fission
#: products.
HM_SMALL_FUEL: tuple[str, ...] = (
    "U234", "U235", "U236", "U238",
    "Np237",
    "Pu238", "Pu239", "Pu240", "Pu241", "Pu242",
    "Am241", "Am242", "Am243",
    "Cm242", "Cm243", "Cm244", "Cm245", "Cm246",
    "Mo95", "Tc99", "Ru101", "Rh103", "Ag109", "Cs133",
    "Nd143", "Nd145",
    "Sm147", "Sm149", "Sm150", "Sm151", "Sm152",
    "Eu153", "Gd155", "Xe135",
)

#: Natural zirconium cladding isotopes.
CLAD_NUCLIDES: tuple[str, ...] = ("Zr90", "Zr91", "Zr92", "Zr94", "Zr96")

#: Borated light-water moderator nuclides.
WATER_NUCLIDES: tuple[str, ...] = ("H1", "O16", "B10", "B11")

#: Nuclides with a thermal fission cross section (fissile).
_FISSILE: frozenset[str] = frozenset(
    {"U233", "U235", "Pu239", "Pu241", "Am242", "Cm243", "Cm245"}
)

_N_LARGE_FUEL = 320


def fuel_nuclide_names(model: str) -> tuple[str, ...]:
    """Fuel nuclide names for ``"hm-small"`` (34) or ``"hm-large"`` (320).

    The large model extends the small fuel with synthetic fission-product
    nuclides ``FP000``-``FP285`` whose mass numbers cycle through the
    fission-product mass range — the paper's "more accurate representation
    of fuel containing 320 different nuclides".
    """
    if model == "hm-small":
        return HM_SMALL_FUEL
    if model == "hm-large":
        extra = tuple(f"FP{i:03d}" for i in range(_N_LARGE_FUEL - len(HM_SMALL_FUEL)))
        return HM_SMALL_FUEL + extra
    raise DataError(f"unknown model {model!r} (want 'hm-small' or 'hm-large')")


@dataclass(frozen=True)
class LibraryConfig:
    """Knobs controlling library size and fidelity.

    The defaults produce grids of a few thousand points per heavy nuclide —
    the same order as evaluated libraries after unionization thinning.  Use
    :meth:`tiny` in unit tests.
    """

    seed: int = 20150525  # IPDPS 2015 conference date
    temperature: float = 293.6
    n_base_points: int = 600
    points_per_resonance: int = 12
    heavy_resonances: int = 150
    medium_resonances: int = 60
    zr_resonances: int = 20
    urr_bands: int = 16
    urr_cols: int = 20
    sab_n_in: int = 24
    sab_n_out: int = 16
    sab_n_mu: int = 4

    @classmethod
    def tiny(cls, seed: int = 20150525) -> "LibraryConfig":
        """Millisecond-scale configuration for unit tests."""
        return cls(
            seed=seed,
            n_base_points=80,
            points_per_resonance=6,
            heavy_resonances=8,
            medium_resonances=4,
            zr_resonances=2,
            urr_bands=4,
            urr_cols=6,
            sab_n_in=8,
            sab_n_out=6,
            sab_n_mu=3,
        )

    def with_seed(self, seed: int) -> "LibraryConfig":
        return replace(self, seed=seed)


def library_fingerprint(model: str, config: LibraryConfig) -> str:
    """SHA-256 over everything that determines a built library's content.

    ``build_library`` is deterministic in ``(model, config)``, so two equal
    fingerprints guarantee bit-identical libraries.  The service layer keys
    its on-disk cache and its worker-affinity batching on this value.
    """
    blob = json.dumps(
        {"model": model, "config": asdict(config)}, sort_keys=True
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _nuclide_rng(config: LibraryConfig, name: str) -> np.random.Generator:
    """Deterministic per-nuclide generator (seed, name) -> stream."""
    return np.random.default_rng([config.seed, zlib.crc32(name.encode())])


def _mass_number(name: str) -> int:
    digits = "".join(ch for ch in name if ch.isdigit())
    if not digits:
        raise DataError(f"cannot parse mass number from {name!r}")
    a = int(digits)
    if name.startswith("FP"):
        # Synthetic fission products: cycle A through 70..170.
        a = 70 + (a * 7) % 101
    return a


def _offsets(grids) -> np.ndarray:
    """Start offsets of consecutive grids in the flat arrays."""
    return np.concatenate([[0], np.cumsum([g.size for g in grids], dtype=np.int64)])


def _plan_nuclide(name: str, config: LibraryConfig):
    """One nuclide up to its cross sections: the scalar :class:`Nuclide`
    fields, the ladder, the grid (its share of the library's flat arrays) and
    the URR/S(a,b) attachments, in one draw order from the nuclide's stream."""
    rng = _nuclide_rng(config, name)
    a = _mass_number(name)
    awr = 0.99917 * a if a > 1 else 0.99917
    fissionable = a >= 225  # actinides carry a fission channel
    fissile = name in _FISSILE

    if a >= 225:  # actinide: dense resolved range + URR
        ladder = sample_ladder(
            rng,
            fissionable=fissionable,
            n_resonances=config.heavy_resonances,
            e_first=5.0e-6 * (0.8 + 0.4 * rng.random()),
            mean_spacing=20.0e-6,
            mean_gamma_n=2.0e-9,
            mean_gamma_g=23.0e-9,
            mean_gamma_f=60.0e-9 if fissile else 1.0e-9,
            sigma_pot=10.0 + 3.0 * rng.random(),
            sigma_thermal_capture=2.7 if not fissile else 90.0,
            sigma_thermal_fission=(500.0 if fissile else 0.0),
        )
    elif name.startswith("Zr"):  # cladding: sparse, weak absorber
        ladder = sample_ladder(
            rng,
            fissionable=False,
            n_resonances=config.zr_resonances,
            e_first=1.0e-4,
            mean_spacing=5.0e-4,
            mean_gamma_n=50.0e-9,
            mean_gamma_g=15.0e-9,
            sigma_pot=6.4,
            sigma_thermal_capture=0.18,
        )
    elif a >= 60:  # fission products: medium density
        absorber = name in {"Xe135", "Sm149", "Gd155"}
        ladder = sample_ladder(
            rng,
            fissionable=False,
            n_resonances=config.medium_resonances,
            e_first=2.0e-6 * (0.5 + rng.random()),
            mean_spacing=100.0e-6,
            mean_gamma_n=30.0e-9,
            mean_gamma_g=40.0e-9,
            sigma_pot=5.0 + 3.0 * rng.random(),
            sigma_thermal_capture=(2.0e4 if absorber else 5.0 + 20.0 * rng.random()),
        )
    elif name == "H1":
        ladder = sample_ladder(
            rng, fissionable=False, n_resonances=0,
            sigma_pot=20.4, sigma_thermal_capture=0.332,
        )
    elif name == "O16":
        ladder = sample_ladder(
            rng,
            fissionable=False,
            n_resonances=3,
            e_first=0.43,
            mean_spacing=0.4,
            mean_gamma_n=40.0e-6,  # wide MeV-range resonances
            mean_gamma_g=1.0e-9,
            sigma_pot=3.9,
            sigma_thermal_capture=1.9e-4,
        )
    elif name in ("B10", "B11"):
        ladder = sample_ladder(
            rng, fissionable=False, n_resonances=0,
            sigma_pot=2.2,
            sigma_thermal_capture=(3837.0 if name == "B10" else 0.005),
        )
    else:  # generic light nuclide
        ladder = sample_ladder(
            rng, fissionable=False, n_resonances=2,
            e_first=0.1, mean_spacing=0.5,
            mean_gamma_n=10.0e-6, mean_gamma_g=1.0e-9,
            sigma_pot=4.0, sigma_thermal_capture=0.1,
        )

    grid = build_energy_grid(
        ladder,
        n_base=config.n_base_points,
        points_per_resonance=config.points_per_resonance,
    )
    urr: URRTable | None = None
    has_urr = a >= 225
    urr_emin = urr_emax = 0.0
    if has_urr:
        # Unresolved range starts where the resolved ladder ends.
        resolved_top = float(ladder.e0[-1]) if ladder.n_resonances else 3.0e-3
        urr_emin = resolved_top * 1.05
        urr_emax = 3.0e-2  # ~10^-2 MeV, as in the paper's Fig. 1 remark
        urr = build_urr_table(
            rng,
            emin=urr_emin,
            emax=urr_emax,
            n_bands=config.urr_bands,
            n_cols=config.urr_cols,
            fissionable=fissionable,
        )

    sab: SabTable | None = None
    if name == "H1":
        sab = build_sab_table(
            rng,
            temperature=config.temperature,
            free_xs=20.4,
            n_in=config.sab_n_in,
            n_out=config.sab_n_out,
            n_mu=config.sab_n_mu,
        )

    scalars = dict(
        name=name,
        awr=awr,
        fissionable=fissionable,
        nu0=2.43 if fissile else 2.8,
        has_urr=has_urr,
        urr_emin=urr_emin,
        urr_emax=urr_emax,
        has_sab=sab is not None,
    )
    return scalars, ladder, grid, urr, sab


def build_nuclide(
    name: str, config: LibraryConfig
) -> tuple[Nuclide, URRTable | None, SabTable | None]:
    """Build one nuclide (and its URR/S(a,b) attachments) deterministically."""
    scalars, ladder, grid, urr, sab = _plan_nuclide(name, config)
    xs = np.empty((N_REACTIONS, grid.size))
    reconstruct_into(
        ladder, grid, xs, awr=scalars["awr"], temperature=config.temperature
    )
    return Nuclide(energy=grid, xs=xs, **scalars), urr, sab


class NuclideLibrary:
    """The struct-of-arrays cross-section store: every nuclide's pointwise
    data packed once into flat contiguous arrays, plus the URR/S(a,b)
    attachments.

    This is the paper's AoS -> SoA transformation (§III-A1) and the one
    owner of the floats: the constructor packs the nuclides it is given and
    rebinds each ``Nuclide.energy`` / ``Nuclide.xs`` to a view of the flat
    storage (:meth:`from_packed`, the builder's and the loader's way in,
    adopts arrays that are flat already), so per-nuclide (history) and flat
    (banked) consumers read the same memory.  Nuclide order is
    stable and indexable (``library.index(name)``) because the transport
    kernels address nuclides by dense integer id.

    Attributes
    ----------
    offsets:
        ``(n_nuclides + 1,)`` int64 start offsets; nuclide ``i`` owns
        ``[offsets[i], offsets[i+1])`` of the flat arrays.
    energy:
        All grids concatenated, shape ``(total_points,)``.
    xs:
        All cross sections concatenated, ``(N_REACTIONS, total_points)``;
        each reaction row is contiguous — vectorized lookups are pure
        unit-stride-per-quantity gathers.
    awr, nu0, fissionable, watt_a, watt_b, has_urr, urr_emin, urr_emax,
    has_sab, sab_cutoff:
        Per-nuclide metadata as dense arrays.  The event loop's collision
        stages index these with *arrays of chosen nuclide ids*, so
        per-particle questions like "does my target have an S(alpha, beta)
        table, and am I below its cutoff?" are single gathers instead of
        Python loops over the library.
    sab_tables:
        Per-nuclide S(alpha, beta) table references (``None`` where absent),
        so kernels can reach a table by dense id without name lookups.
    """

    def __init__(
        self,
        nuclides: list[Nuclide],
        urr: dict[str, URRTable],
        sab: dict[str, SabTable],
        config: LibraryConfig,
        model: str,
    ) -> None:
        nuclides = list(nuclides)
        if not nuclides:
            raise DataError("a library needs at least one nuclide")
        grids = [n.energy for n in nuclides]
        offsets, energy = _offsets(grids), np.concatenate(grids)
        xs = np.concatenate([n.xs for n in nuclides], axis=1)
        for nuc, lo, hi in zip(nuclides, offsets, offsets[1:]):
            nuc.energy = energy[lo:hi]
            nuc.xs = xs[:, lo:hi]
        self._adopt(nuclides, energy, xs, offsets, urr, sab, config, model)

    @classmethod
    def from_packed(
        cls, energy: np.ndarray, xs: np.ndarray, offsets: np.ndarray,
        scalars: Sequence[dict], urr: dict[str, URRTable], sab: dict[str, SabTable],
        config: LibraryConfig, model: str,
    ) -> "NuclideLibrary":
        """Adopt flat arrays as they stand, without a copy: ``scalars[i]`` are
        nuclide ``i``'s non-array :class:`Nuclide` fields, and each nuclide is
        created (and so validated) as a view of its slice."""
        if (
            not scalars
            or (energy.dtype, xs.dtype, offsets.dtype) != (float, float, np.int64)
            or xs.shape != (N_REACTIONS, energy.size)
            or offsets.shape != (len(scalars) + 1,)
            or (offsets[0], offsets[-1]) != (0, energy.size)
        ):
            raise DataError("packed library arrays do not fit together")
        nuclides = [
            Nuclide(energy=energy[lo:hi], xs=xs[:, lo:hi], **info)
            for info, lo, hi in zip(scalars, offsets, offsets[1:])
        ]
        self = cls.__new__(cls)
        self._adopt(nuclides, energy, xs, offsets, urr, sab, config, model)
        return self

    def _adopt(self, nuclides, energy, xs, offsets, urr, sab, config, model):
        """The one way in: ``nuclides`` are already views of the arrays."""
        self._nuclides = nuclides
        self._by_name = {n.name: n for n in nuclides}
        if len(self._by_name) != len(nuclides):
            raise DataError("duplicate nuclide names in library")
        self._index = {n.name: i for i, n in enumerate(nuclides)}
        self.urr = dict(urr)
        self.sab = dict(sab)
        self.config = config
        self.model = model
        self.energy, self.xs, self.offsets = energy, xs, offsets

        def column(attr: str) -> np.ndarray:
            return np.array([getattr(n, attr) for n in nuclides])

        self.awr = column("awr")
        self.nu0 = column("nu0")
        self.fissionable = column("fissionable")
        self.watt_a = column("watt_a")
        self.watt_b = column("watt_b")
        self.has_urr = column("has_urr")
        self.urr_emin = column("urr_emin")
        self.urr_emax = column("urr_emax")
        self.has_sab = column("has_sab")
        self.sab_tables = [
            self.sab[n.name] if n.has_sab else None for n in nuclides
        ]
        self.sab_cutoff = np.array(
            [t.cutoff if t is not None else 0.0 for t in self.sab_tables]
        )

    # -- Container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._nuclides)

    def __iter__(self):
        return iter(self._nuclides)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, key: str | int) -> Nuclide:
        if isinstance(key, str):
            return self._by_name[key]
        return self._nuclides[key]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self._nuclides)

    def index(self, name: str) -> int:
        """Dense integer id of a nuclide (stable across the library's life)."""
        return self._index[name]

    # -- Memory accounting ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes of pointwise data + URR + S(a,b) tables."""
        total = int(self.energy.nbytes + self.xs.nbytes)
        total += sum(t.nbytes for t in self.urr.values())
        total += sum(t.nbytes for t in self.sab.values())
        return total

    def fission_q(self, name: str) -> float:
        """Energy per fission [MeV] (constant; kept for tally normalization)."""
        return 200.0

    # -- Flat gathers -----------------------------------------------------------

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
        idx = self.offsets[nuclide_id] + np.asarray(local_indices, dtype=np.int64)
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


def build_library(
    model: str = "hm-small", config: LibraryConfig | None = None
) -> NuclideLibrary:
    """Build the full library for a Hoogenboom-Martin model.

    Includes the fuel nuclides plus moderator and cladding nuclides; the
    result is deterministic in ``config.seed``.
    """
    config = config or LibraryConfig()
    names = fuel_nuclide_names(model) + CLAD_NUCLIDES + WATER_NUCLIDES
    # Plan, then fill: the ladders and grids fix the offsets, and each
    # nuclide's cross sections are reconstructed straight into its slice.
    scalars, ladders, grids, urr, sab = zip(
        *(_plan_nuclide(name, config) for name in names)
    )
    offsets = _offsets(grids)
    energy = np.concatenate(grids)
    xs = np.empty((N_REACTIONS, energy.size))
    for info, ladder, lo, hi in zip(scalars, ladders, offsets, offsets[1:]):
        reconstruct_into(
            ladder, energy[lo:hi], xs[:, lo:hi],
            awr=info["awr"], temperature=config.temperature,
        )
    return NuclideLibrary.from_packed(
        energy, xs, offsets, scalars,
        {n: t for n, t in zip(names, urr) if t is not None},
        {n: t for n, t in zip(names, sab) if t is not None},
        config, model,
    )
