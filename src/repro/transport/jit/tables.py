"""Cache-friendly typed-tuple views of the SoA side-tables.

The compiled kernels take plain contiguous typed arrays — no Python
objects — so this module flattens the pieces the NumPy path
reaches through attribute chains (:class:`~repro.data.soa.SoALibrary`
rows, :class:`~repro.physics.macroxs.MaterialPlan` offsets, the unionized
grid's rank words) into two ``NamedTuple`` views:

* :class:`LibraryView` — one per :class:`XSCalculator`: the flat union
  energy grid, the raveled per-nuclide rank words and their step-bit count,
  the concatenated SoA energy grid, and the three reaction rows the
  transport kernels gather (elastic / capture / fission).
* :class:`PlanView` — one per cached ``MaterialPlan``: dense offsets, row
  offsets into the raveled rank words, densities, and the fission
  metadata the accumulation kernel folds in.

NamedTuples of arrays are a natural numba argument type (each field lowers
to a typed array), and building them is pure aliasing — every field is a
zero-copy view of arrays the calculator already owns, so a view costs a
few hundred bytes however large the library is.  Views are cached on
``id()`` keyed dicts exactly like the calculator's own MaterialPlan cache
(the plan's material reference keeps the id stable for the cache's
lifetime).
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
    #: Concatenated per-nuclide energy grids (SoA), ``(total_points,)``.
    energy: np.ndarray
    #: The three gathered reaction rows, each ``(total_points,)``.
    elastic: np.ndarray
    capture: np.ndarray
    fission: np.ndarray


class PlanView(NamedTuple):
    """Kernel-ready per-material metadata (one per MaterialPlan)."""

    #: Start of each material nuclide's grid in the flat SoA arrays.
    offsets: np.ndarray
    #: Row offsets into the raveled rank words (``ids * words_per_row``).
    union_rowoff: np.ndarray
    #: Atom densities aligned with ``offsets``.
    rho: np.ndarray
    #: Per-material-nuclide fission metadata for the accumulation kernel.
    fissionable: np.ndarray
    nu0: np.ndarray


_LIBRARY_VIEWS: dict[int, tuple[XSCalculator, LibraryView]] = {}
_PLAN_VIEWS: dict[int, tuple[MaterialPlan, PlanView]] = {}


def library_view(calc: XSCalculator) -> LibraryView:
    """Cached :class:`LibraryView` of ``calc`` (requires a union grid)."""
    cached = _LIBRARY_VIEWS.get(id(calc))
    if cached is not None:
        return cached[1]
    if calc.union is None:
        raise ValueError("library_view requires a unionized grid")
    soa = calc.soa
    view = LibraryView(
        union_energy=np.ascontiguousarray(calc.union.energy),
        union_words_flat=np.ascontiguousarray(calc.union.words.ravel()),
        union_step_bits=calc.union.step_bits,
        energy=np.ascontiguousarray(soa.energy),
        elastic=np.ascontiguousarray(soa.xs[Reaction.ELASTIC]),
        capture=np.ascontiguousarray(soa.xs[Reaction.CAPTURE]),
        fission=np.ascontiguousarray(soa.xs[Reaction.FISSION]),
    )
    _LIBRARY_VIEWS[id(calc)] = (calc, view)
    return view


def plan_view(plan: MaterialPlan) -> PlanView:
    """Cached :class:`PlanView` of one material's plan."""
    cached = _PLAN_VIEWS.get(id(plan))
    if cached is not None:
        return cached[1]
    view = PlanView(
        offsets=np.ascontiguousarray(plan.offsets.astype(np.int64, copy=False)),
        union_rowoff=np.ascontiguousarray(plan.union_rowoff),
        rho=np.ascontiguousarray(plan.rho),
        fissionable=np.ascontiguousarray(plan.fissionable.astype(np.bool_)),
        nu0=np.ascontiguousarray(plan.nu0),
    )
    _PLAN_VIEWS[id(plan)] = (plan, view)
    return view
