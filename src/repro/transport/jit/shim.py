"""Numba detection, the ``njit`` shim, and compile-time accounting.

``numba`` is an **optional** dependency (``pip install repro[jit]``).  This
module is the single place that knows whether it is importable:

* With numba present, :func:`njit` is the real ``numba.njit`` (nopython
  mode, no ``fastmath`` — fast-math would license reassociation and FMA
  contraction, either of which breaks the bit-identity contract with the
  NumPy kernels).  Each kernel's **first call** is timed, so the one-shot
  JIT compile cost is observable (:func:`jit_status`, and the
  ``compile_s`` field of ``bench_event_hotpath``) separately from
  steady-state rates.
* Without numba, :func:`njit` is an identity decorator: the kernel bodies
  in :mod:`repro.transport.jit.kernels` remain callable as plain-Python
  loop twins — far too slow for production banks (the dispatch layer in
  :mod:`repro.transport.jit.calculator` falls back to the banked NumPy
  applies instead) but exactly right for bit-identity tests on tiny banks,
  so the kernel *logic* is verified even in numba-free environments.

The import of numba itself is deferred until the first kernel is
decorated at module import of ``kernels.py``; detection (``HAVE_NUMBA``)
uses only ``importlib.util.find_spec`` so registries and CLIs that merely
*name* the backend never pay numba's multi-second import.
"""

from __future__ import annotations

import importlib.util
from time import perf_counter

__all__ = [
    "HAVE_NUMBA",
    "njit",
    "njit_callee",
    "jit_status",
    "reset_compile_times",
]

#: True when the numba package is importable in this environment.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: Kernel name -> seconds spent in its first invocation (JIT compile +
#: first run).  Empty until kernels are exercised, and always empty when
#: numba is absent (the pure-Python twins are not instrumented).
_FIRST_CALL_SECONDS: dict[str, float] = {}


def _timed_first_call(func):
    """Wrap a jitted function so its first invocation is timed.

    Numba compiles lazily on first call; timing that call captures the
    compile cost (plus one tiny-bank execution, which is noise next to it).
    Subsequent calls go straight to the compiled dispatcher — the wrapper
    swaps itself out after the first call, so steady-state dispatch pays
    one attribute indirection, not a Python closure per call.
    """
    state = {"inner": None}

    def first(*args):
        t0 = perf_counter()
        out = func(*args)
        _FIRST_CALL_SECONDS[func.__name__] = perf_counter() - t0
        state["inner"] = func
        return out

    def dispatch(*args):
        inner = state["inner"]
        if inner is None:
            return first(*args)
        return inner(*args)

    dispatch.__name__ = func.__name__
    dispatch.__wrapped__ = func
    return dispatch


if HAVE_NUMBA:
    import numba as _numba

    def njit(func):
        """Compile ``func`` in nopython mode with deterministic float
        semantics (no fastmath, on-disk cache) and first-call timing."""
        return _timed_first_call(njit_callee(func))

    def njit_callee(func):
        """:func:`njit` for a helper the kernels call: the bare dispatcher,
        because compiled code cannot call the timing wrapper."""
        return _numba.njit(func, cache=True, fastmath=False)

else:

    def njit(func):
        """Identity decorator: the kernel body stays a plain-Python twin."""
        return func

    njit_callee = njit


def jit_status() -> dict:
    """One-call report of the JIT tier's state.

    Returns ``{"numba_available": bool, "kernels_compiled": [names],
    "compile_s": float}`` where ``compile_s`` is the summed first-call
    (compile) time of every kernel exercised so far — the number the
    hot-path bench reports separately from steady-state generation time.
    """
    return {
        "numba_available": HAVE_NUMBA,
        "kernels_compiled": sorted(_FIRST_CALL_SECONDS),
        "compile_s": float(sum(_FIRST_CALL_SECONDS.values())),
    }


def reset_compile_times() -> None:
    """Forget recorded first-call times (bench isolation only — compiled
    dispatchers stay warm; only the accounting resets)."""
    _FIRST_CALL_SECONDS.clear()
