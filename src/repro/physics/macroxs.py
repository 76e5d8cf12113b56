"""Macroscopic cross-section calculation — the paper's bottleneck kernel.

Implements Algorithm 1 (``calculate_xs``) in the three structural variants
the paper compares:

* :meth:`XSCalculator.scalar` — the history-based path: one particle, a
  scalar loop over the material's nuclides (with optional unionized-grid
  indexing, URR probability-table sampling, and S(alpha, beta) substitution);
* :meth:`XSCalculator.banked` — the event-based path: a whole bank of
  particles at once, Python-looping over nuclides while NumPy vectorizes the
  particle dimension (the analogue of ``#pragma simd`` on Algorithm 2's
  inner loop, transposed to NumPy's strength);
* :meth:`XSCalculator.banked_outer` — the alternative the paper tried and
  found slower: vectorizing across the *nuclide* dimension per particle
  (ragged bounds per material are why it loses on real hardware).

Both banked variants reproduce the scalar path's results — and its random-
number stream — exactly, so history and event transport are bit-comparable.

Every path reads the library's own flat arrays (the library is the SoA); a
calculator copies nothing but the AoS records the ``layout="aos"`` ablation
asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.library import NuclideLibrary
from ..data.nuclide import NU_THERMAL_SLOPE, Nuclide
from ..data.sab import SabTable
from ..data.soa import AoSLibrary
from ..data.unionized import UnionizedGrid
from ..data.urr import URRTable
from ..errors import PhysicsError
from ..geometry.materials import Material
from ..rng.lcg import RandomStream, prn_array
from ..types import N_REACTIONS, Reaction
from ..work import WorkCounters

__all__ = ["MacroXS", "MaterialPlan", "XSCalculator"]

#: Bytes touched per nuclide per lookup: two grid points x (energy + four
#: cross sections) x 8 bytes.  Feeds the memory-bound roofline estimate.
BYTES_PER_NUCLIDE_LOOKUP = 2 * (1 + N_REACTIONS) * 8


@dataclass
class MacroXS:
    """Macroscopic cross sections [1/cm] of a material at one energy.

    ``nu_fission`` is :math:`\\nu\\Sigma_f` — fission production — used by
    all three k-effective estimators.
    """

    total: float
    elastic: float
    capture: float
    fission: float
    nu_fission: float = 0.0

    @property
    def absorption(self) -> float:
        return self.capture + self.fission


class TileWorkspace:
    """Reusable scratch for the ``(n_nuclides, N)`` matrices of one banked
    call: two int64 index buffers, one uint8 popcount buffer, six float64
    buffers — 65 B per element.

    The buffers are flat ``np.empty`` arrays grown lazily to the largest
    request (rounded up to a power of two, so a request a few elements
    larger than the last does not reallocate).  Only the prefix a call
    uses is ever touched, so a calculator that sees 200-lane banks pays
    for 200-lane pages however large the buffers' virtual size.  Every
    view handed out aliases the same memory: it is valid until the owning
    calculator's next banked or attribution call and must never be
    returned to a caller outside the kernel layer.
    """

    __slots__ = ("_buffers", "_size")

    _DTYPES = (np.int64,) * 2 + (np.uint8,) + (np.float64,) * 6

    def __init__(self) -> None:
        self._buffers: list[np.ndarray] = []
        self._size = -1

    def views(self, n_nuc: int, n: int) -> list[np.ndarray]:
        """Nine C-contiguous ``(n_nuc, n)`` views: two int64 position
        matrices, the uint8 popcount matrix, two float64 interpolation
        matrices, three float64 reaction matrices, one float64 scratch."""
        size = n_nuc * n
        if size > self._size:
            # Drop the old buffers first so growth never holds both sets.
            self._buffers = []
            self._size = 1 << max(size - 1, 0).bit_length()
            self._buffers = [np.empty(self._size, dtype=d) for d in self._DTYPES]
        return [buf[:size].reshape(n_nuc, n) for buf in self._buffers]


class MaterialPlan:
    """Precomputed per-material metadata for the banked kernels.

    Everything the hot loop would otherwise recompute per call — dense
    nuclide ids, densities, flat-array offsets, and which nuclides carry
    S(alpha, beta) / URR tables — resolved once and cached on the
    :class:`XSCalculator` (see :meth:`XSCalculator.material_plan`).

    Attributes
    ----------
    ids, rho:
        Dense nuclide ids and aligned atom densities (``Material.resolve``).
    offsets_col:
        ``library.offsets[ids]`` as a column — start of each material
        nuclide's grid in the library's flat arrays, so fused gathers are
        ``offsets_col + local``.
    nuclides:
        The material's :class:`Nuclide` objects in id order (non-union grid
        searches, scalar fallbacks).
    fissionable, nu0:
        Per-material-nuclide scalars gathered from the library's side-tables.
    fissionable_rows, nu0_fissionable_col:
        Row numbers of the fissionable nuclides and their ``nu0`` as a
        column — the fission-production sub-matrix is gathered and scaled
        through these into workspace rows.
    sab_entries:
        ``(k, table, cutoff)`` for each nuclide with an S(alpha, beta)
        table, in material (accumulation/RNG) order ``k``.
    urr_entries:
        ``(k, table)`` for each nuclide with an unresolved-resonance
        probability table, in material order ``k``.
    """

    __slots__ = (
        "material",
        "ids",
        "rho",
        "n_nuclides",
        "offsets_col",
        "nuclides",
        "fissionable",
        "fissionable_rows",
        "nu0",
        "nu0_fissionable_col",
        "sab_entries",
        "urr_entries",
        "urr_emin",
        "urr_emax",
        "union_rowoff",
        "union_rowoff_col",
    )

    def __init__(self, calc: XSCalculator, material: Material) -> None:
        library = calc.library
        ids, rho = material.resolve(library)
        self.material = material
        self.ids = ids
        self.rho = rho
        self.n_nuclides = int(ids.shape[0])
        self.offsets_col = library.offsets[ids][:, None]
        self.nuclides: list[Nuclide] = [library[int(i)] for i in ids]
        self.fissionable = library.fissionable[ids]
        self.fissionable_rows = np.flatnonzero(self.fissionable)
        self.nu0 = library.nu0[ids]
        self.nu0_fissionable_col = self.nu0[self.fissionable][:, None]
        self.sab_entries: list[tuple[int, SabTable, float]] = []
        self.urr_entries: list[tuple[int, URRTable]] = []
        for k, nuc in enumerate(self.nuclides):
            if nuc.has_sab:
                nid = int(ids[k])
                self.sab_entries.append(
                    (k, library.sab_tables[nid], float(library.sab_cutoff[nid]))
                )
            if nuc.has_urr:
                self.urr_entries.append((k, library.urr[nuc.name]))
        # Fused-containment bounds for the URR nuclides (one vectorized
        # range check per bank instead of a ``contains`` call per nuclide).
        self.urr_emin = np.array([t.emin for _, t in self.urr_entries])
        self.urr_emax = np.array([t.emax for _, t in self.urr_entries])
        # Flat row offsets into the union grid's rank words, so the hot
        # gather is a single ``take`` out of the raveled words instead of
        # 2-D fancy indexing (same elements, lower dispatch cost).
        if calc.union is not None:
            self.union_rowoff = ids.astype(np.int64) * calc.union.words.shape[1]
            self.union_rowoff_col = self.union_rowoff[:, None]
        else:
            self.union_rowoff = self.union_rowoff_col = None


class XSCalculator:
    """Cross-section engine bound to a library (and optionally a union grid).

    Parameters
    ----------
    library:
        The nuclide library.
    union:
        Optional unionized grid; when present, per-nuclide binary searches
        are replaced by one union search plus index gathers (Leppänen).
    use_sab, use_urr:
        Physics toggles.  The paper *removed* the S(alpha, beta) and URR
        blocks to vectorize its micro-benchmarks; switching these off
        reproduces that stripped configuration.
    layout:
        ``"soa"`` (default) or ``"aos"`` — which data layout the banked
        kernels read from (ablation #1 in DESIGN.md).
    """

    def __init__(
        self,
        library: NuclideLibrary,
        union: UnionizedGrid | None = None,
        *,
        use_sab: bool = True,
        use_urr: bool = True,
        layout: str = "soa",
    ) -> None:
        self.library = library
        self.union = union
        self.use_sab = use_sab
        self.use_urr = use_urr
        if layout not in ("soa", "aos"):
            raise PhysicsError(f"unknown layout {layout!r}")
        self.layout = layout
        self.aos = AoSLibrary(library) if layout == "aos" else None
        # id(material) -> MaterialPlan; the plan's material reference keeps
        # the id stable for the cache's lifetime.
        self._plans: dict[int, MaterialPlan] = {}
        if union is not None:
            self._union_words_flat = union.words.ravel()
            self._union_shift = np.uint64(union.step_bits)
        #: Scratch matrices every banked and attribution call runs on.
        self.workspace = TileWorkspace()

    def material_plan(self, material: Material) -> MaterialPlan:
        """Cached :class:`MaterialPlan` for a material (built on first use)."""
        plan = self._plans.get(id(material))
        if plan is None:
            plan = MaterialPlan(self, material)
            self._plans[id(material)] = plan
        return plan

    def _local_indices(
        self,
        plan: MaterialPlan,
        energies: np.ndarray,
        flat: np.ndarray,
        local: np.ndarray,
        count: np.ndarray,
    ) -> np.ndarray:
        """Fill the int64 ``local`` with the interval indices within each
        material nuclide's own grid, shape ``(n_nuclides_in_material, N)``.

        With a union grid this is a single search, one fused gather out of
        the raveled rank words and their rank arithmetic (see
        :mod:`repro.data.unionized`): ``flat`` is int64 scratch for the
        gather positions and then the masked step bits, ``count`` uint8
        scratch for their popcounts.  Without one it falls back to
        per-nuclide binary searches.
        """
        if self.union is None:
            for k, nuc in enumerate(plan.nuclides):
                local[k] = nuc.find_index_many(energies)
            return local
        union = self.union
        q, r = np.divmod(union.search_many(energies), union.step_bits)
        np.add(plan.union_rowoff_col, q, out=flat)
        # ``search_many`` clamps ``u`` into the row, so no position can
        # leave the words and the unbuffered clip mode never clips.
        words = self._union_words_flat.take(
            flat, out=local.view(np.uint64), mode="clip"
        )
        steps = np.bitwise_and(
            words, union.step_masks.take(r), out=flat.view(np.uint64)
        )
        np.bitwise_count(steps, out=count)
        # ``words`` is ``local``'s memory: what the shift leaves there is the
        # count fields, already int64.
        words >>= self._union_shift
        local += count
        return local

    def _bracket(
        self, plan: MaterialPlan, energies: np.ndarray, ia, ib, count, fa, fb
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The gather prologue shared by the lookup and the attribution:
        flat library positions of each lane's bracketing grid points and the
        interpolation factors, ``(idx, idx1, f, g)`` with ``g = 1 - f``,
        written into the first five workspace matrices.

        ``take(..., out=)`` is only unbuffered in ``mode="clip"``, which
        would silently read a neighbouring entry where ``mode="raise"``
        raises; the explicit range check below restores the raise.
        """
        local = self._local_indices(plan, energies, ia, ib, count)
        idx = np.add(plan.offsets_col, local, out=ia)
        idx1 = np.add(idx, 1, out=ib)
        grid = self.library.energy
        if idx.size and (idx1.max() >= grid.shape[0] or idx.min() < 0):
            raise IndexError(
                f"grid interval outside the {grid.shape[0]}-point flat arrays "
                f"(material {plan.material.name!r}): corrupt index matrix?"
            )
        e0 = grid.take(idx, out=fa, mode="clip")
        e1 = grid.take(idx1, out=fb, mode="clip")
        den = np.subtract(e1, e0, out=e1)
        f = np.subtract(energies[None, :], e0, out=e0)
        f /= den
        np.clip(f, 0.0, 1.0, out=f)
        g = np.subtract(1.0, f, out=den)
        return idx, idx1, f, g

    @staticmethod
    def _interpolate(row, idx, idx1, f, g, out, hi) -> np.ndarray:
        """``row[idx] * g + row[idx1] * f`` into ``out`` (``hi`` is
        scratch) — element for element the per-nuclide ``micro_xs_gather``
        arithmetic, so results stay bit-equal."""
        row.take(idx, out=out, mode="clip")
        out *= g
        row.take(idx1, out=hi, mode="clip")
        hi *= f
        out += hi
        return out

    # ------------------------------------------------------------------
    # Scalar (history-based) path
    # ------------------------------------------------------------------

    def scalar(
        self,
        material: Material,
        energy: float,
        stream: RandomStream,
        counters: WorkCounters | None = None,
        per_nuclide_total: np.ndarray | None = None,
    ) -> MacroXS:
        """Algorithm 1 for a single particle.

        ``per_nuclide_total``, if given (length >= material.n_nuclides), is
        filled with each nuclide's contribution to the total macroscopic
        cross section — the weights for collision-nuclide sampling.
        """
        plan = self.material_plan(material)
        ids, rho = plan.ids, plan.rho
        n = ids.shape[0]
        if self.union is not None:
            # One flat gather of the material's rank words per lookup; the
            # rank arithmetic below runs on Python ints.
            step_bits = self.union.step_bits
            q, r = divmod(self.union.search(energy), step_bits)
            upto = (2 << r) - 1
            words = self._union_words_flat.take(plan.union_rowoff + q).tolist()
        total = elastic = capture = fission = nu_fission = 0.0
        for k in range(n):
            nid = int(ids[k])
            nuc = self.library[nid]
            if self.union is not None:
                idx = (words[k] >> step_bits) + (words[k] & upto).bit_count()
            else:
                idx = nuc.find_index(energy)
            micro = nuc.micro_xs(energy, index=idx)
            m_el = micro[Reaction.ELASTIC]
            m_cap = micro[Reaction.CAPTURE]
            m_fis = micro[Reaction.FISSION]
            if self.use_sab and nuc.has_sab:
                sab = self.library.sab[nuc.name]
                if energy < sab.cutoff:
                    m_el = float(sab.thermal_xs(energy))
                    if counters:
                        counters.sab_samples += 1
            if self.use_urr and nuc.has_urr:
                table = self.library.urr[nuc.name]
                if table.contains(energy):
                    factors = table.sample_factors(energy, stream.prn())
                    m_el *= factors[Reaction.ELASTIC]
                    m_cap *= factors[Reaction.CAPTURE]
                    m_fis *= factors[Reaction.FISSION]
                    if counters:
                        counters.urr_samples += 1
                        counters.rn_draws += 1
            m_tot = m_el + m_cap + m_fis
            contrib = rho[k] * m_tot
            total += contrib
            elastic += rho[k] * m_el
            capture += rho[k] * m_cap
            fission += rho[k] * m_fis
            if nuc.fissionable:
                nu_fission += rho[k] * m_fis * float(nuc.nu(energy))
            if per_nuclide_total is not None:
                per_nuclide_total[k] = contrib
        if counters:
            counters.lookups += 1
            counters.nuclide_iterations += n
            counters.grid_searches += 1 if self.union is not None else n
            counters.bytes_read += n * BYTES_PER_NUCLIDE_LOOKUP
        return MacroXS(
            total=total,
            elastic=elastic,
            capture=capture,
            fission=fission,
            nu_fission=nu_fission,
        )

    # ------------------------------------------------------------------
    # Banked (event-based) path: inner nuclide loop, vectorized particles
    # ------------------------------------------------------------------

    def apply_corrections(
        self,
        plan: MaterialPlan,
        energies: np.ndarray,
        m_el_mat: np.ndarray,
        m_cap_mat: np.ndarray,
        m_fis_mat: np.ndarray,
        *,
        rng_states: np.ndarray | None = None,
        counters: WorkCounters | None = None,
    ) -> None:
        """S(alpha, beta) substitution (no RNG) and URR factor sampling
        (RNG draws in material order ``k``, exactly the scalar path's draw
        order), applied **in place** to the ``(n_nuc, N)`` micro matrices.

        The two nuclide sets are disjoint, so the split loops touch
        different rows and commute with the old interleaved form.  Both
        layouts of :meth:`banked` run it between their gather and the
        accumulation.
        """
        if self.use_sab:
            for k, sab, cutoff in plan.sab_entries:
                mask = energies < cutoff
                if mask.any():
                    m_el_mat[k, mask] = sab.thermal_xs(energies[mask])
                    if counters:
                        counters.sab_samples += int(mask.sum())
        if self.use_urr and plan.urr_entries:
            in_range = (energies[None, :] >= plan.urr_emin[:, None]) & (
                energies[None, :] < plan.urr_emax[:, None]
            )
            for i, (k, table) in enumerate(plan.urr_entries):
                mask = in_range[i]
                if mask.any():
                    if rng_states is None:
                        raise PhysicsError(
                            "banked URR sampling requires rng_states"
                        )
                    new_states, xi = prn_array(rng_states[mask])
                    rng_states[mask] = new_states
                    factors = table.sample_factors_many(energies[mask], xi)
                    m_el_mat[k, mask] *= factors[Reaction.ELASTIC]
                    m_cap_mat[k, mask] *= factors[Reaction.CAPTURE]
                    m_fis_mat[k, mask] *= factors[Reaction.FISSION]
                    if counters:
                        counters.urr_samples += int(mask.sum())
                        counters.rn_draws += int(mask.sum())

    def banked(
        self,
        material: Material,
        energies: np.ndarray,
        rng_states: np.ndarray | None = None,
        counters: WorkCounters | None = None,
        per_nuclide_total: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Vectorized Algorithm 1 over a bank of particles.

        Parameters
        ----------
        energies:
            Particle energies, shape ``(N,)``.
        rng_states:
            Per-particle LCG states (uint64), advanced **in place** exactly
            as the scalar path would advance each particle's stream (URR
            draws happen only for particles inside a table's range, in the
            same material order) — required when ``use_urr`` is on.
        per_nuclide_total:
            Optional ``(n_nuclides_in_material, N)`` output of per-nuclide
            contributions (collision-nuclide sampling weights).

        Returns a dict of ``(N,)`` arrays: ``total``, ``elastic``,
        ``capture``, ``fission``.
        """
        energies = np.asarray(energies, dtype=np.float64)
        plan = self.material_plan(material)
        rho = plan.rho
        n_nuc = plan.n_nuclides
        n = energies.shape[0]
        ia, ib, count, fa, fb, m_el_mat, m_cap_mat, m_fis_mat, contrib = (
            self.workspace.views(n_nuc, n)
        )
        if self.layout == "soa":
            # Fused gather: one (n_nuc, N) take per quantity instead of
            # n_nuc small per-nuclide gathers.
            xs = self.library.xs
            idx, idx1, f, g = self._bracket(
                plan, energies, ia, ib, count, fa, fb
            )
            for reaction, out in (
                (Reaction.ELASTIC, m_el_mat),
                (Reaction.CAPTURE, m_cap_mat),
                (Reaction.FISSION, m_fis_mat),
            ):
                self._interpolate(xs[reaction], idx, idx1, f, g, out, contrib)
        else:
            # AoS ablation: keep the per-nuclide strided gathers (that cost
            # is the point of the layout comparison) but share the workspace
            # and the fused correction/accumulation code below.
            local = self._local_indices(plan, energies, ia, ib, count)
            for k in range(n_nuc):
                micro = self.aos.micro_xs_gather(
                    int(plan.ids[k]), energies, local[k]
                )
                m_el_mat[k] = micro[Reaction.ELASTIC]
                m_cap_mat[k] = micro[Reaction.CAPTURE]
                m_fis_mat[k] = micro[Reaction.FISSION]
        self.apply_corrections(
            plan, energies, m_el_mat, m_cap_mat, m_fis_mat,
            rng_states=rng_states, counters=counters,
        )
        # Per-nuclide accumulation in material order: float sums must happen
        # in the scalar path's order to stay bit-identical (no matmul/BLAS
        # reductions here, by design).  ``np.add.reduce`` over axis 0 of a
        # C-order (n_nuc, N) array is a strided reduction that accumulates
        # row-by-row in exactly that order — except when N == 1, where the
        # reduction is contiguous and NumPy switches to pairwise summation,
        # so that case keeps the explicit loop.
        nu_e = NU_THERMAL_SLOPE * energies
        if n == 1:
            total = np.zeros(n)
            elastic = np.zeros(n)
            capture = np.zeros(n)
            fission = np.zeros(n)
            nu_fission = np.zeros(n)
            buf = np.empty(n)
            for k in range(n_nuc):
                m_el = m_el_mat[k]
                m_cap = m_cap_mat[k]
                m_fis = m_fis_mat[k]
                np.add(m_el, m_cap, out=buf)
                buf += m_fis
                buf *= rho[k]
                total += buf
                if per_nuclide_total is not None:
                    per_nuclide_total[k] = buf
                m_el *= rho[k]
                elastic += m_el
                m_cap *= rho[k]
                capture += m_cap
                m_fis *= rho[k]
                fission += m_fis
                if plan.fissionable[k]:
                    nu_fission += m_fis * (plan.nu0[k] + nu_e)
        else:
            # The reductions allocate their (N,) results, so what is
            # returned is the caller's own; everything 2-D stays in the
            # workspace.
            rho_col = rho[:, None]
            np.add(m_el_mat, m_cap_mat, out=contrib)
            contrib += m_fis_mat
            contrib *= rho_col
            total = np.add.reduce(contrib, axis=0)
            if per_nuclide_total is not None:
                per_nuclide_total[:n_nuc] = contrib
            m_el_mat *= rho_col
            elastic = np.add.reduce(m_el_mat, axis=0)
            m_cap_mat *= rho_col
            capture = np.add.reduce(m_cap_mat, axis=0)
            m_fis_mat *= rho_col
            fission = np.add.reduce(m_fis_mat, axis=0)
            n_fis = plan.fissionable_rows.shape[0]
            if n_fis:
                # The interpolation factors are spent: their matrices hold
                # the fissionable rows and the nu(E) factors.
                nu_mat = m_fis_mat.take(
                    plan.fissionable_rows, axis=0, out=fa[:n_fis], mode="clip"
                )
                nu_mat *= np.add(
                    plan.nu0_fissionable_col, nu_e[None, :], out=fb[:n_fis]
                )
                nu_fission = np.add.reduce(nu_mat, axis=0)
            else:
                nu_fission = np.zeros(n)
        if counters:
            counters.lookups += n
            counters.nuclide_iterations += n * n_nuc
            counters.grid_searches += n if self.union is not None else n * n_nuc
            counters.bytes_read += n * n_nuc * BYTES_PER_NUCLIDE_LOOKUP
        return {
            "total": total,
            "elastic": elastic,
            "capture": capture,
            "fission": fission,
            "nu_fission": nu_fission,
        }

    # ------------------------------------------------------------------
    # Banked, outer-loop variant (for the ablation)
    # ------------------------------------------------------------------

    def banked_outer(
        self,
        material: Material,
        energies: np.ndarray,
        counters: WorkCounters | None = None,
    ) -> np.ndarray:
        """Total macroscopic XS via per-particle vectorization over nuclides.

        One Python-level iteration *per particle*, each gathering all
        nuclides' contributions at once — the structure of putting
        ``#pragma simd`` on the outer loop of Algorithm 2.  The paper found
        this slower (ragged inner bounds per material); here the Python
        per-particle overhead plays that role.  S(alpha, beta)/URR are not
        supported in this stripped variant (as in the paper's
        micro-benchmark).  Requires a union grid.
        """
        if self.union is None:
            raise PhysicsError("banked_outer requires a unionized grid")
        energies = np.asarray(energies, dtype=np.float64)
        ids, rho = material.resolve(self.library)
        n = energies.shape[0]
        out = np.empty(n)
        # One interval index per library nuclide; those outside the material
        # keep index 0 and never reach the dot product with the densities.
        local = np.zeros(len(self.library), dtype=np.int64)
        for j in range(n):
            u = self.union.search(float(energies[j]))
            local[ids] = self.union.nuclide_indices(ids, u)
            micro_tot = self.library.micro_total_across_nuclides(
                float(energies[j]), local
            )
            out[j] = float(np.dot(rho, micro_tot[ids]))
        if counters:
            counters.lookups += n
            counters.nuclide_iterations += n * ids.shape[0]
            counters.grid_searches += n
            counters.bytes_read += n * ids.shape[0] * BYTES_PER_NUCLIDE_LOOKUP
        return out

    # ------------------------------------------------------------------
    # Collision attribution
    # ------------------------------------------------------------------

    def attribution_weights(
        self,
        material: Material,
        energies: np.ndarray,
        reaction: Reaction,
        counters: WorkCounters | None = None,
    ) -> np.ndarray:
        """Per-nuclide sampling weights for collision attribution.

        Shape ``(n_nuclides_in_material, N)``: entry ``[k, j]`` is
        :math:`N_k \\sigma_{x,k}(E_j)` for the requested channel ``x``.
        S(alpha, beta) substitution is applied (bound hydrogen dominates
        thermal scattering attribution); URR factors are *not* — they were
        consumed during the lookup and re-drawing them would desynchronize
        the particle streams.  Both transport loops use this same function,
        so history and event runs attribute collisions identically.
        """
        return self._attribution_block(
            material, energies, reaction, counters
        ).copy()

    def _attribution_block(
        self,
        material: Material,
        energies: np.ndarray,
        reaction: Reaction,
        counters: WorkCounters | None = None,
    ) -> np.ndarray:
        """:meth:`attribution_weights` as a **workspace view** — what the
        banked stage kernels consume, one tile at a time.  The block is
        overwritten by this calculator's next banked or attribution call,
        so it must be used up (sampled from) before that and never handed
        on.
        """
        energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
        plan = self.material_plan(material)
        n_nuc = plan.n_nuclides
        n = energies.shape[0]
        # Fused SoA gather of the one requested reaction row across all the
        # material's nuclides at once (always SoA — attribution is shared
        # infrastructure, not part of the layout ablation).
        ia, ib, count, fa, fb, out, hi = self.workspace.views(n_nuc, n)[:7]
        idx, idx1, f, g = self._bracket(
            plan, energies, ia, ib, count, fa, fb
        )
        self._interpolate(self.library.xs[reaction], idx, idx1, f, g, out, hi)
        if reaction == Reaction.ELASTIC and self.use_sab:
            for k, sab, cutoff in plan.sab_entries:
                mask = energies < cutoff
                if mask.any():
                    out[k, mask] = sab.thermal_xs(energies[mask])
        out *= plan.rho[:, None]
        if counters:
            n_items = out.size
            counters.nuclide_iterations += n_items
            counters.bytes_read += n_items * BYTES_PER_NUCLIDE_LOOKUP
        return out
