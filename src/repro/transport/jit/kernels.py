r"""Compiled stage kernels over the flat SoA side-tables.

Each kernel is the loop-nest form of one banked NumPy apply, compiled with
:func:`~repro.transport.jit.shim.njit` when numba is present (and a
plain-Python twin otherwise — slow, but bit-exact, which is what the
fallback tests run).  Two rules keep the compiled path **bit-identical**
to the NumPy path it replaces:

1. **Same operations in the same order.**  IEEE-754 ``+ - * /`` are
   correctly rounded, so a scalar loop that performs *exactly* the ops of
   the vectorized expression — ``(E - e0)/(e1 - e0)`` clipped, then
   ``lo*g + hi*f``; accumulation strictly nuclide-row by nuclide-row, the
   order of NumPy's strided ``np.add.reduce`` — produces the same bits.
   ``fastmath`` stays off (see the shim) so LLVM may not reassociate or
   contract ``a*b + c`` into an FMA.
2. **No transcendentals.**  ``log``/``cos``/``sin`` are *not* correctly
   rounded and NumPy's SIMD implementations need not agree with libm to
   the last ulp, so flight sampling, Watt rejection, and rotation stay in
   the NumPy stage kernels; the compiled tier covers the search / gather /
   interpolate / accumulate work — the paper's Algorithm-1 bottleneck —
   where exactness is provable.

The kernels mirror, line for line:

* :func:`xs_gather3` — ``XSCalculator._local_indices`` (union-grid branch:
  one rank word per nuclide, count field plus :func:`popcount64` of the
  step bits up to the union point — integer work, exact in any order)
  fused with the SoA three-row gather/interpolation block of
  ``XSCalculator.banked``;
* :func:`xs_gather1` — the one-row gather of
  ``XSCalculator.attribution_weights`` (collision / fission / scatter
  nuclide attribution);
* :func:`accumulate_macro` — the per-nuclide accumulation of
  ``XSCalculator.banked`` (row-by-row, matching both the strided-reduce
  ``N > 1`` path and the explicit ``N == 1`` loop, which share one
  ordering).

Layering: like :mod:`repro.transport.stages`, this package sits at the
bottom of the transport stack and imports nothing above it (the
``transport/jit`` row of ``tools/check_layering.py``).
"""

from __future__ import annotations

import numpy as np

from .shim import njit, njit_callee

__all__ = ["popcount64", "xs_gather3", "xs_gather1", "accumulate_macro"]

# The rank arithmetic keeps every operand ``uint64``: numba unifies a
# ``uint64``/``int64`` pair to ``float64``, and NumPy scalars would too.
_ONE, _TWO, _FOUR = np.uint64(1), np.uint64(2), np.uint64(4)
_EIGHT, _SIXTEEN, _THIRTY_TWO = np.uint64(8), np.uint64(16), np.uint64(32)
_EVERY_2ND_BIT = np.uint64(0x5555555555555555)
_EVERY_2ND_PAIR = np.uint64(0x3333333333333333)
_EVERY_2ND_NIBBLE = np.uint64(0x0F0F0F0F0F0F0F0F)
_EVERY_2ND_BYTE = np.uint64(0x00FF00FF00FF00FF)
_EVERY_2ND_SHORT = np.uint64(0x0000FFFF0000FFFF)
_LOW_HALF = np.uint64(0x00000000FFFFFFFF)


@njit_callee
def popcount64(x):
    """Number of set bits of a ``uint64``: six shift/and/add folds (adjacent
    bits, pairs, nibbles, ...), so the ``@njit`` form and the pure-Python
    twin run one source and nothing can overflow."""
    x = (x & _EVERY_2ND_BIT) + ((x >> _ONE) & _EVERY_2ND_BIT)
    x = (x & _EVERY_2ND_PAIR) + ((x >> _TWO) & _EVERY_2ND_PAIR)
    x = (x & _EVERY_2ND_NIBBLE) + ((x >> _FOUR) & _EVERY_2ND_NIBBLE)
    x = (x & _EVERY_2ND_BYTE) + ((x >> _EIGHT) & _EVERY_2ND_BYTE)
    x = (x & _EVERY_2ND_SHORT) + ((x >> _SIXTEEN) & _EVERY_2ND_SHORT)
    return (x & _LOW_HALF) + (x >> _THIRTY_TWO)


@njit
def xs_gather3(
    energies,
    union_energy,
    union_words_flat,
    union_step_bits,
    union_rowoff,
    offsets,
    soa_energy,
    soa_elastic,
    soa_capture,
    soa_fission,
    out_el,
    out_cap,
    out_fis,
):
    """Fused union search + three-reaction SoA gather/interpolation.

    For each particle ``j``: one binary search of the union grid
    (``searchsorted(..., side="right") - 1`` semantics, clipped), then for
    each material nuclide ``k`` the rank query of its word (see
    :mod:`repro.data.unionized`), a gather of the bracketing grid points
    and the linear interpolation ``lo*g + hi*f`` into the ``(n_nuc, N)``
    output matrices.  Loop order is particle-outer so an energy-banded
    tile walks each nuclide's grid near-sequentially.
    """
    n = energies.shape[0]
    n_nuc = offsets.shape[0]
    n_union = union_energy.shape[0]
    shift = np.uint64(union_step_bits)
    for j in range(n):
        e = energies[j]
        # Binary search: bisect_right(union_energy, e) - 1, clipped into
        # [0, n_union - 2] — exactly UnionizedGrid.search_many.
        lo = 0
        hi = n_union
        while lo < hi:
            mid = (lo + hi) >> 1
            if union_energy[mid] <= e:
                lo = mid + 1
            else:
                hi = mid
        u = lo - 1
        if u < 0:
            u = 0
        elif u > n_union - 2:
            u = n_union - 2
        q = u // union_step_bits
        upto = (_TWO << np.uint64(u % union_step_bits)) - _ONE
        for k in range(n_nuc):
            word = union_words_flat[union_rowoff[k] + q]
            local = (word >> shift) + popcount64(word & upto)
            idx = offsets[k] + np.int64(local)
            e0 = soa_energy[idx]
            e1 = soa_energy[idx + 1]
            den = e1 - e0
            f = (e - e0) / den
            if f < 0.0:
                f = 0.0
            elif f > 1.0:
                f = 1.0
            g = 1.0 - f
            out_el[k, j] = soa_elastic[idx] * g + soa_elastic[idx + 1] * f
            out_cap[k, j] = soa_capture[idx] * g + soa_capture[idx + 1] * f
            out_fis[k, j] = soa_fission[idx] * g + soa_fission[idx + 1] * f
    return 0


@njit
def xs_gather1(
    energies,
    union_energy,
    union_words_flat,
    union_step_bits,
    union_rowoff,
    offsets,
    soa_energy,
    soa_row,
    out,
):
    """One-reaction twin of :func:`xs_gather3` (attribution weights)."""
    n = energies.shape[0]
    n_nuc = offsets.shape[0]
    n_union = union_energy.shape[0]
    shift = np.uint64(union_step_bits)
    for j in range(n):
        e = energies[j]
        lo = 0
        hi = n_union
        while lo < hi:
            mid = (lo + hi) >> 1
            if union_energy[mid] <= e:
                lo = mid + 1
            else:
                hi = mid
        u = lo - 1
        if u < 0:
            u = 0
        elif u > n_union - 2:
            u = n_union - 2
        q = u // union_step_bits
        upto = (_TWO << np.uint64(u % union_step_bits)) - _ONE
        for k in range(n_nuc):
            word = union_words_flat[union_rowoff[k] + q]
            local = (word >> shift) + popcount64(word & upto)
            idx = offsets[k] + np.int64(local)
            e0 = soa_energy[idx]
            e1 = soa_energy[idx + 1]
            den = e1 - e0
            f = (e - e0) / den
            if f < 0.0:
                f = 0.0
            elif f > 1.0:
                f = 1.0
            g = 1.0 - f
            out[k, j] = soa_row[idx] * g + soa_row[idx + 1] * f
    return 0


@njit
def accumulate_macro(
    m_el,
    m_cap,
    m_fis,
    rho,
    fissionable,
    nu0,
    energies,
    nu_slope,
    out_total,
    out_elastic,
    out_capture,
    out_fission,
    out_nu_fission,
):
    """Density-weighted per-nuclide accumulation into the macro arrays.

    Matches the NumPy path bit for bit: contributions are summed strictly
    in material (row) order — the accumulation order of the strided
    ``np.add.reduce`` over axis 0 of a C-order matrix and of the explicit
    ``N == 1`` loop alike — and each term is formed with the same
    parenthesisation: ``((el + cap) + fis) * rho`` for the total,
    ``(fis * rho) * (nu0 + nu_slope * E)`` for fission production.
    """
    n_nuc, n = m_el.shape
    for j in range(n):
        nu_e = nu_slope * energies[j]
        tot = 0.0
        el = 0.0
        cap = 0.0
        fis = 0.0
        nuf = 0.0
        for k in range(n_nuc):
            a = m_el[k, j]
            b = m_cap[k, j]
            c = m_fis[k, j]
            r = rho[k]
            tot += ((a + b) + c) * r
            el += a * r
            fc = c * r
            cap += b * r
            fis += fc
            if fissionable[k]:
                nuf += fc * (nu0[k] + nu_e)
        out_total[j] = tot
        out_elastic[j] = el
        out_capture[j] = cap
        out_fission[j] = fis
        out_nu_fission[j] = nuf
    return 0
