"""Dispatch proxy routing the XS hot path through the compiled kernels.

:class:`JitXSCalculator` wraps an ordinary
:class:`~repro.physics.macroxs.XSCalculator` and overrides exactly the two
methods the event schedule's stage kernels hit in their inner loops —
:meth:`banked` (the XS-lookup stage) and :meth:`attribution_weights`
(collision-nuclide attribution in the fission/scatter stages).  Everything
else — material plans, the scalar path, physics toggles — delegates to the
wrapped calculator, so the proxy can be dropped into a
:class:`~repro.transport.context.TransportContext` via
``dataclasses.replace(ctx, calculator=proxy)`` and **no stage kernel
changes at all**: the stages keep calling ``ctx.calculator.banked`` and
transparently get the compiled tier.

The overridden methods are gather/interpolate/accumulate sandwiches:

    compiled gather (xs_gather3 / xs_gather1)
      -> shared Python corrections (XSCalculator.apply_corrections / SAB)
      -> compiled accumulation (accumulate_macro)

The corrections stay in Python on purpose: they draw random numbers and
touch object tables (S(alpha, beta) interpolants, URR probability tables),
and sharing the wrapped calculator's single implementation means the two
paths cannot drift.  The compiled pieces replicate the NumPy arithmetic
op-for-op (see :mod:`repro.transport.jit.kernels`), so the proxy is
**bit-identical** to the calculator it wraps — same tallies, same RNG
stream consumption, same counters.

Fallback contract (``compiled="auto"``): when numba is missing, or the
calculator has no union grid, or uses the AoS ablation layout, or a call
asks for ``per_nuclide_total`` (a shape the kernels don't produce), the
proxy simply calls the wrapped NumPy method.  ``compiled="force"`` runs
the kernels even without numba — the pure-Python twins, unusably slow for
real banks but exactly what the numba-free equivalence tests need.
"""

from __future__ import annotations

import numpy as np

from ...data.nuclide import NU_THERMAL_SLOPE
from ...physics.macroxs import (
    BYTES_PER_NUCLIDE_LOOKUP,
    XSCalculator,
)
from ...types import Reaction
from ...work import WorkCounters
from .kernels import accumulate_macro, xs_gather1, xs_gather3
from .shim import HAVE_NUMBA
from .tables import library_view, plan_view

__all__ = ["JitXSCalculator"]

#: Reactions the single-row gather kernel can serve (the rows LibraryView
#: carries); any other reaction delegates to the NumPy path.
_GATHER_ROWS = (Reaction.ELASTIC, Reaction.CAPTURE, Reaction.FISSION)

_COMPILED_MODES = ("auto", "force")


class JitXSCalculator:
    """Bit-identical compiled-kernel front for an :class:`XSCalculator`.

    Parameters
    ----------
    calc:
        The calculator to wrap.  Shared by reference — plans, caches, and
        physics toggles are the wrapped object's own.
    compiled:
        ``"auto"`` (kernels when numba is importable, NumPy otherwise) or
        ``"force"`` (kernels always — pure-Python twins without numba;
        test use).
    """

    def __init__(self, calc: XSCalculator, *, compiled: str = "auto") -> None:
        if isinstance(calc, JitXSCalculator):  # never stack proxies
            calc = calc.calc
        if compiled not in _COMPILED_MODES:
            raise ValueError(
                f"unknown compiled mode {compiled!r}; "
                f"expected one of {_COMPILED_MODES}"
            )
        self.calc = calc
        self.compiled = compiled

    # -- delegation ----------------------------------------------------

    def __getattr__(self, name: str):
        # Only called for attributes not found on the proxy itself:
        # library, union, use_sab/use_urr, layout, scalar,
        # material_plan, banked_outer, ...
        return getattr(self.calc, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JitXSCalculator({self.calc!r}, compiled={self.compiled!r}, "
            f"active={self.active})"
        )

    @property
    def active(self) -> bool:
        """True when calls will route through the (possibly pure-Python
        twin) kernels rather than delegating to the NumPy path."""
        if self.compiled == "auto" and not HAVE_NUMBA:
            return False
        return self._kernel_capable()

    def _kernel_capable(self) -> bool:
        calc = self.calc
        return calc.union is not None and calc.layout == "soa"

    # -- the two hot methods -------------------------------------------

    def banked(
        self,
        material,
        energies: np.ndarray,
        rng_states: np.ndarray | None = None,
        counters: WorkCounters | None = None,
        per_nuclide_total: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Compiled-kernel form of :meth:`XSCalculator.banked`.

        ``per_nuclide_total`` callers (collision-weight shapes the kernels
        do not produce) and non-kernel-capable configurations delegate.
        """
        if per_nuclide_total is not None or not self.active:
            return self.calc.banked(
                material, energies, rng_states, counters, per_nuclide_total
            )
        calc = self.calc
        energies = np.ascontiguousarray(energies, dtype=np.float64)
        plan = calc.material_plan(material)
        lib = library_view(calc)
        pv = plan_view(plan)
        n_nuc = plan.n_nuclides
        n = energies.shape[0]

        # The wrapped calculator's scratch matrices: both tiers run on the
        # one workspace, and only the (N,) results below are the caller's.
        m_el_mat, m_cap_mat, m_fis_mat = calc.workspace.views(n_nuc, n)[5:8]
        xs_gather3(
            energies,
            lib.union_energy,
            lib.union_words_flat,
            lib.union_step_bits,
            pv.union_rowoff,
            pv.offsets,
            lib.energy,
            lib.elastic,
            lib.capture,
            lib.fission,
            m_el_mat,
            m_cap_mat,
            m_fis_mat,
        )
        # Single shared implementation of S(alpha, beta) / URR — identical
        # code object to the NumPy path, so RNG consumption cannot drift.
        calc.apply_corrections(
            plan,
            energies,
            m_el_mat,
            m_cap_mat,
            m_fis_mat,
            rng_states=rng_states,
            counters=counters,
        )
        total = np.empty(n)
        elastic = np.empty(n)
        capture = np.empty(n)
        fission = np.empty(n)
        nu_fission = np.empty(n)
        accumulate_macro(
            m_el_mat,
            m_cap_mat,
            m_fis_mat,
            pv.rho,
            pv.fissionable,
            pv.nu0,
            energies,
            NU_THERMAL_SLOPE,
            total,
            elastic,
            capture,
            fission,
            nu_fission,
        )
        if counters:
            counters.lookups += n
            counters.nuclide_iterations += n * n_nuc
            counters.grid_searches += n
            counters.bytes_read += n * n_nuc * BYTES_PER_NUCLIDE_LOOKUP
        return {
            "total": total,
            "elastic": elastic,
            "capture": capture,
            "fission": fission,
            "nu_fission": nu_fission,
        }

    def attribution_weights(
        self,
        material,
        energies: np.ndarray,
        reaction: Reaction,
        counters: WorkCounters | None = None,
    ) -> np.ndarray:
        """Compiled-kernel form of :meth:`XSCalculator.attribution_weights`
        (a caller-owned copy of the block)."""
        return self._attribution_block(
            material, energies, reaction, counters
        ).copy()

    def _attribution_block(
        self,
        material,
        energies: np.ndarray,
        reaction: Reaction,
        counters: WorkCounters | None = None,
    ) -> np.ndarray:
        """Compiled-kernel form of :meth:`XSCalculator._attribution_block`:
        the gather runs as a kernel into the shared workspace, the
        S(alpha, beta) / density / counter tail is the wrapped
        calculator's own."""
        calc = self.calc
        if not self.active or reaction not in _GATHER_ROWS:
            return calc._attribution_block(
                material, energies, reaction, counters
            )
        energies = np.atleast_1d(
            np.ascontiguousarray(energies, dtype=np.float64)
        )
        plan = calc.material_plan(material)
        lib = library_view(calc)
        pv = plan_view(plan)
        if reaction == Reaction.ELASTIC:
            row = lib.elastic
        elif reaction == Reaction.CAPTURE:
            row = lib.capture
        else:
            row = lib.fission
        out = calc.workspace.views(plan.n_nuclides, energies.shape[0])[5]
        xs_gather1(
            energies,
            lib.union_energy,
            lib.union_words_flat,
            lib.union_step_bits,
            pv.union_rowoff,
            pv.offsets,
            lib.energy,
            row,
            out,
        )
        calc._finish_attribution(plan, energies, reaction, out, counters)
        return out
