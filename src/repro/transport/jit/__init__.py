"""Optional compiled-kernel (numba) tier for the event-based hot path.

The package behind the ``numba-event`` transport backend (DESIGN.md §15):

* :mod:`~repro.transport.jit.shim` — numba detection, the ``njit``
  decorator shim (identity without numba), compile-time accounting;
* :mod:`~repro.transport.jit.tables` — flat typed-tuple views of the library
  arrays the kernels read;
* :mod:`~repro.transport.jit.kernels` — the ``@njit`` stage kernels
  (search + gather + interpolate, accumulate), written as exact loop-nest
  twins of the banked NumPy applies;
* :mod:`~repro.transport.jit.calculator` — :class:`JitXSCalculator`, the
  dispatch proxy a backend swaps into the transport context.

Numba is optional (``pip install repro[jit]``).  Without it every export
here still imports and works — kernels run as pure-Python twins (for
tests) and the proxy's ``"auto"`` mode falls back to the banked NumPy
applies, so the ``numba-event`` backend is selectable everywhere and
merely runs at ``event`` speed.

Layering: this package sits beside :mod:`repro.transport.stages` at the
bottom of the transport stack and must not import upward (execution /
serve / cluster / simd / ... — ``tools/check_layering.py``).
"""

from __future__ import annotations

from .calculator import JitXSCalculator
from .shim import HAVE_NUMBA, jit_status, reset_compile_times
from .tables import LibraryView, PlanView, library_view, plan_view

__all__ = [
    "HAVE_NUMBA",
    "JitXSCalculator",
    "LibraryView",
    "PlanView",
    "jit_status",
    "library_view",
    "plan_view",
    "reset_compile_times",
]
