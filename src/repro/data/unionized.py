"""Unionized energy grid (Leppänen's double-indexing method).

The dominant cost of the macroscopic cross-section kernel is the per-nuclide
binary search of each nuclide's private energy grid.  Leppänen's unionized
grid replaces those searches with **one** search of a global grid (the union
of all nuclide grids) plus a precomputed index matrix mapping every union
point to the enclosing interval of every nuclide grid — turning O(nuclides ×
log points) searches into O(log union) + O(nuclides) gathers.

The price is memory: the index matrix is ``n_nuclides × n_union`` entries,
which is why Table II's "energy grid size transferred" reaches 8.37 GB for
H.M. Large at paper fidelity.  Two things keep that price as low as the
library allows:

* **Entry width from the library.**  An entry is an interval index
  ``j <= n_points - 2`` and every consumer also forms ``j + 1``, so a
  library whose largest nuclide grid satisfies ``n_points - 1 <= 65535``
  (at most 65 536 points) fits both in ``uint16``; anything larger gets
  ``int32``.  The width is a function of the library alone — no parameter,
  no second code path — and consumers read the matrix in its native dtype,
  widening only the few values they gather.  Table II's 8.37 GB is this
  structure at the 8 B/entry the offload model back-derives from it
  (≈3.4e6 union points × 329 nuclides; :mod:`repro.machine.memory` keeps
  those paper-calibrated constants); at 2 B/entry the same structure would
  be ≈2.2 GB whenever no nuclide grid exceeds 65 536 points.
* **Run-length construction.**  A row is a non-decreasing step function of
  the union index that rises by one at each interior nuclide grid point.
  So instead of searching the nuclide grid for every union point
  (``n_union`` queries a row), the nuclide's ``n_points - 2`` interior
  points are located *in the union* and the row is written as runs:
  ``np.repeat(arange(n_points - 1), diff([0, pos..., n_union]))``.  Entry
  for entry this is ``clip(searchsorted(nuc.energy, union, "right") - 1,
  0, n_points - 2)`` — also on a thinned union, where runs may be empty.

:meth:`UnionizedGrid.nbytes` feeds the machine memory model; ``max_points``
optionally thins the union grid (a standard fidelity/memory trade-off, also
from Leppänen's paper).
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .library import NuclideLibrary

__all__ = ["UnionizedGrid"]


class UnionizedGrid:
    """Union grid + per-nuclide index matrix over a library.

    Attributes
    ----------
    energy:
        The union grid [MeV], strictly increasing, shape ``(n_union,)``.
    indices:
        Matrix of shape ``(n_nuclides, n_union)``; entry ``[i, u]`` is the
        interval index ``j`` of nuclide ``i`` such that
        ``nuc.energy[j] <= energy[u] < nuc.energy[j+1]`` (clamped at the
        ends).  A union search plus this gather replaces each nuclide's
        binary search.  ``uint16`` when every nuclide grid has at most
        65 536 points (so ``j`` and ``j + 1`` are both representable),
        ``int32`` otherwise; C-contiguous, so ``indices.ravel()`` is a view
        that every cross-section path shares.
    """

    def __init__(self, library: NuclideLibrary, max_points: int | None = None):
        self.library = library
        grids = [n.energy for n in library]
        union = np.unique(np.concatenate(grids))
        if max_points is not None and union.size > max_points:
            if max_points < 2:
                raise DataError("max_points must be >= 2")
            # Thin by rank, always keeping the end points.
            pick = np.linspace(0, union.size - 1, max_points).round().astype(int)
            union = union[np.unique(pick)]
        self.energy = np.ascontiguousarray(union)
        n_union = self.energy.size
        widest = max(n.n_points for n in library)
        dtype = np.uint16 if widest - 1 <= np.iinfo(np.uint16).max else np.int32
        self.indices = np.empty((len(library), n_union), dtype=dtype)
        intervals = np.arange(widest - 1, dtype=dtype)
        for i, nuc in enumerate(library):
            # Interval j covers union points [pos[j], pos[j+1]), pos[k] being
            # the first union point >= nuc.energy[k]; the first and last
            # intervals run to the ends of the union (the clamps).
            pos = np.searchsorted(self.energy, nuc.energy[1:-1], side="left")
            runs = np.diff(pos, prepend=0, append=n_union)
            self.indices[i] = np.repeat(intervals[: nuc.n_points - 1], runs)

    # -- Introspection --------------------------------------------------------

    @property
    def n_union(self) -> int:
        """Number of union grid points."""
        return int(self.energy.size)

    @property
    def nbytes(self) -> int:
        """Bytes of the union grid + index matrix (memory-model input)."""
        return int(self.energy.nbytes + self.indices.nbytes)

    # -- Searches ---------------------------------------------------------------

    def search(self, energy: float) -> int:
        """Single binary search of the union grid."""
        u = int(np.searchsorted(self.energy, energy, side="right")) - 1
        return min(max(u, 0), self.n_union - 2)

    def search_many(self, energies: np.ndarray) -> np.ndarray:
        """Vectorized union-grid search for a bank of energies."""
        u = self.energy.searchsorted(energies, side="right") - 1
        np.minimum(u, self.energy.size - 2, out=u)
        np.maximum(u, 0, out=u)
        return u

    def nuclide_index(self, nuclide_id: int, union_index: int) -> int:
        """Gather the precomputed per-nuclide interval for a union point."""
        return int(self.indices[nuclide_id, union_index])

    def nuclide_indices(
        self, nuclide_id: int, union_indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`nuclide_index` over a bank."""
        return self.indices[nuclide_id, union_indices]
