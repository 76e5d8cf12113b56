"""Unionized energy grid (Leppänen's double-indexing method).

The dominant cost of the macroscopic cross-section kernel is the per-nuclide
binary search of each nuclide's private energy grid.  Leppänen's unionized
grid replaces those searches with **one** search of a global grid (the union
of all nuclide grids) plus a precomputed map from every union point to the
enclosing interval ``j`` of every nuclide grid — turning O(nuclides × log
points) searches into O(log union) + O(nuclides) gathers.

The price is memory: as a matrix the map is ``n_nuclides × n_union`` entries,
which is why Table II's "energy grid size transferred" reaches 8.37 GB for
H.M. Large at paper fidelity (≈3.4e6 union points × 329 nuclides at the
8 B/entry the offload model back-derives; :mod:`repro.machine.memory` keeps
those paper-calibrated constants).  But a row of that matrix is a step
function: every nuclide point is a union point, so ``j`` rises by exactly one
at each interior point of the nuclide's grid and nowhere else.  One bit per
entry holds the steps, and ``j`` is a rank query on them.

**Rank words.**  The low ``W`` bits of the ``uint64`` ``words[i, w]`` are the
step bitmap of union points ``w * W ... w * W + W - 1`` (bit ``b`` set when
point ``w * W + b`` is an interior point of nuclide ``i``'s grid), the high
``64 - W`` bits the number of steps before the word, so with ``word =
words[i, u // W]``::

    j = (word >> W) + popcount(word & ((2 << (u % W)) - 1))

— one gather and one popcount, and by construction ``clip(searchsorted(
nuc.energy, union, "right") - 1, 0, n_points - 2)`` for every entry.  The
count field must hold ``n_points - 2`` of the library's widest grid, which
fixes ``W = 64 - max(1, (widest - 2).bit_length())`` from the library alone
(52 for both default libraries: 1.23 bits an entry); consumers form ``j + 1``
in ``int64``, so nothing wraps.  Rows are built one at a time, so nothing of
``(n_nuclides, n_union)`` size ever exists.  :meth:`UnionizedGrid.nbytes`
feeds the machine memory model.
"""

from __future__ import annotations

import numpy as np

from .library import NuclideLibrary

__all__ = ["UnionizedGrid"]


class UnionizedGrid:
    """Union grid + per-nuclide rank words over a library.

    Attributes
    ----------
    energy:
        The union grid [MeV], strictly increasing, shape ``(n_union,)``.
    step_bits:
        ``W``: union points per word, ``64 - step_bits`` being the width of
        a word's count field.
    step_masks:
        ``step_masks[r] = (2 << r) - 1``, the step bits at or below bit
        ``r``, as a ``uint64`` table of ``W`` entries (a bank's masks are
        one gather).
    words:
        ``uint64`` matrix of shape ``(n_nuclides, ceil(n_union / W))``, from
        which :meth:`nuclide_indices` computes the interval index ``j`` of
        nuclide ``i`` with ``nuc.energy[j] <= energy[u] < nuc.energy[j+1]``
        (clamped at the ends).  A union search plus this rank query replaces
        each nuclide's binary search.  C-contiguous, so ``words.ravel()`` is
        a view that every cross-section path shares.
    """

    def __init__(self, library: NuclideLibrary):
        self.library = library
        self.energy = np.unique(library.energy)
        self._interior = self.energy[1:-1]
        n_union = self.energy.size
        widest = max(n.n_points for n in library)
        w = self.step_bits = 64 - max(1, (widest - 2).bit_length())
        n_words = -(-n_union // w)
        self.words = np.empty((len(library), n_words), dtype=np.uint64)
        self.step_masks = (
            np.uint64(2) << np.arange(w, dtype=np.uint64)
        ) - np.uint64(1)
        # One row's temporaries, reused: a byte per step bit, and the packed
        # bits of each word padded to eight bytes.
        bits = np.zeros(n_words * w, dtype=np.uint8)
        packed = np.zeros((n_words, 8), dtype=np.uint8)
        for row, nuc in zip(self.words, library):
            # Every nuclide point is a union point: its interior points are
            # exactly where the row's ``j`` steps.
            pos = np.searchsorted(self.energy, nuc.energy[1:-1])
            bits[pos] = 1
            packed[:, : -(-w // 8)] = np.packbits(
                bits.reshape(n_words, w), axis=1, bitorder="little"
            )
            bits[pos] = 0
            # Little-endian bit order within little-endian bytes: bit ``b``
            # of the word is step ``b``, whatever the host's byte order.
            steps = packed.view("<u8").ravel()
            row[0] = 0
            np.cumsum(np.bitwise_count(steps[:-1]), out=row[1:])
            row <<= np.uint64(w)
            row |= steps

    # -- Introspection --------------------------------------------------------

    @property
    def n_union(self) -> int:
        """Number of union grid points."""
        return int(self.energy.size)

    @property
    def nbytes(self) -> int:
        """Bytes of the union grid + rank words (memory-model input)."""
        return int(self.energy.nbytes + self.words.nbytes)

    # -- Searches ---------------------------------------------------------------

    # The interval ``u`` with ``energy[u] <= e < energy[u + 1]``, clamped into
    # ``[0, n_union - 2]``, is the number of *interior* points at or below
    # ``e``: none below the grid, all ``n_union - 2`` above it — one search,
    # no clamps.

    def search(self, energy: float) -> int:
        """Single binary search of the union grid."""
        return int(self._interior.searchsorted(energy, side="right"))

    def search_many(self, energies: np.ndarray) -> np.ndarray:
        """Vectorized union-grid search for a bank of energies."""
        return self._interior.searchsorted(energies, side="right")

    def nuclide_index(self, nuclide_id: int, union_index: int) -> int:
        """The per-nuclide interval of a union point: one rank query."""
        q, r = divmod(union_index, self.step_bits)
        word = int(self.words[nuclide_id, q])
        return (word >> self.step_bits) + (word & ((2 << r) - 1)).bit_count()

    def nuclide_indices(self, nuclide_id, union_indices) -> np.ndarray:
        """Vectorized :meth:`nuclide_index`, ``int64``; the nuclide ids and
        the union indices broadcast against each other."""
        q, r = np.divmod(union_indices, self.step_bits)
        word = self.words[nuclide_id, q]
        j = (word >> np.uint64(self.step_bits)) + np.bitwise_count(
            word & self.step_masks[r]
        )
        return j.astype(np.int64)
