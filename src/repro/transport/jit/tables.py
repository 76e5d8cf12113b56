"""Cache-friendly typed-tuple views of the library's flat arrays.

The compiled kernels take plain contiguous typed arrays — no Python
objects — so this module flattens the pieces the NumPy path
reaches through attribute chains (the library's flat rows — the library is
the SoA — :class:`~repro.physics.macroxs.MaterialPlan` offsets, the
unionized grid's rank words) into two ``NamedTuple`` views:

* :class:`LibraryView` — one per :class:`XSCalculator`: the flat union
  energy grid, the raveled per-nuclide rank words and their step-bit count,
  the library's concatenated energy grid, and the three reaction rows the
  transport kernels gather (elastic / capture / fission).
* :class:`PlanView` — one per cached ``MaterialPlan``: dense offsets, row
  offsets into the raveled rank words, densities, and the fission
  metadata the accumulation kernel folds in.

NamedTuples of arrays are a natural numba argument type (each field lowers
to a typed array), and building them is pure aliasing — every field is a
zero-copy view of arrays the library, the grid or the plan already owns, so
a view costs a few hundred bytes however large the library is.  Each view is
kept on its owner (``calc.kernel_view`` / ``plan.kernel_view``) and dies with
it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ...physics.macroxs import MaterialPlan, XSCalculator
from ...types import Reaction

__all__ = ["LibraryView", "PlanView", "library_view", "plan_view"]


class LibraryView(NamedTuple):
    """Flat, kernel-ready slices of a calculator's nuclear data."""

    #: Union energy grid (the binary-search target), shape ``(n_union,)``.
    union_energy: np.ndarray
    #: Raveled ``uint64`` rank words, a view of ``calc.union.words``, and
    #: the number of step bits in each (``calc.union.step_bits``).
    union_words_flat: np.ndarray
    union_step_bits: int
    #: The library's concatenated energy grids, ``(total_points,)``.
    energy: np.ndarray
    #: The three gathered reaction rows, each ``(total_points,)``.
    elastic: np.ndarray
    capture: np.ndarray
    fission: np.ndarray


class PlanView(NamedTuple):
    """Kernel-ready per-material metadata (one per MaterialPlan)."""

    #: Start of each material nuclide's grid in the library's flat arrays.
    offsets: np.ndarray
    #: Row offsets into the raveled rank words (``ids * words_per_row``).
    union_rowoff: np.ndarray
    #: Atom densities aligned with ``offsets``.
    rho: np.ndarray
    #: Per-material-nuclide fission metadata for the accumulation kernel.
    fissionable: np.ndarray
    nu0: np.ndarray


def library_view(calc: XSCalculator) -> LibraryView:
    """The calculator's :class:`LibraryView`, built on first use (requires
    a union grid)."""
    if calc.kernel_view is None:
        if calc.union is None:
            raise ValueError("library_view requires a unionized grid")
        library = calc.library
        calc.kernel_view = LibraryView(
            union_energy=np.ascontiguousarray(calc.union.energy),
            union_words_flat=np.ascontiguousarray(calc.union.words.ravel()),
            union_step_bits=calc.union.step_bits,
            energy=np.ascontiguousarray(library.energy),
            elastic=np.ascontiguousarray(library.xs[Reaction.ELASTIC]),
            capture=np.ascontiguousarray(library.xs[Reaction.CAPTURE]),
            fission=np.ascontiguousarray(library.xs[Reaction.FISSION]),
        )
    return calc.kernel_view


def plan_view(plan: MaterialPlan) -> PlanView:
    """The plan's :class:`PlanView`, built on first use."""
    if plan.kernel_view is None:
        plan.kernel_view = PlanView(
            offsets=np.ascontiguousarray(plan.offsets.astype(np.int64, copy=False)),
            union_rowoff=np.ascontiguousarray(plan.union_rowoff),
            rho=np.ascontiguousarray(plan.rho),
            fissionable=np.ascontiguousarray(plan.fissionable.astype(np.bool_)),
            nu0=np.ascontiguousarray(plan.nu0),
        )
    return plan.kernel_view
