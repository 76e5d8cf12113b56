"""Test-only oracle: the dense formulation ``reconstruct_xs`` replaced.

Every quantity is a full ``(n_resonances, n_energies)`` matrix in a fresh
temporary, the taper and the interference product are evaluated on every
pair, and the fission channel on every nuclide.  The blocked, windowed
kernel in :mod:`repro.data.resonance` must equal it bit for bit.
"""

import numpy as np

from repro.data.doppler import doppler_zeta, psi_chi
from repro.data.resonance import _INTERFERENCE_TAPER, SIGMA0_CONST_BARN_MEV
from repro.types import Reaction


def dense_reconstruct_xs(ladder, energies, *, awr, temperature, wofz_window=50.0):
    energies = np.asarray(energies, dtype=float)
    n_e = energies.shape[0]
    elastic = np.full(n_e, ladder.sigma_pot, dtype=float)
    capture = np.zeros(n_e, dtype=float)
    fission = np.zeros(n_e, dtype=float)

    inv_v = np.sqrt(2.53e-8 / energies)
    capture += ladder.sigma_thermal_capture * inv_v
    fission += ladder.sigma_thermal_fission * inv_v

    if ladder.n_resonances:
        gamma = ladder.gamma_total
        sigma0 = SIGMA0_CONST_BARN_MEV / ladder.e0 * (ladder.gamma_n / gamma)
        zeta = doppler_zeta(gamma, ladder.e0, awr, temperature)
        interference = np.sqrt(sigma0 * ladder.sigma_pot)

        chunk = max(1, int(4.0e6 // max(n_e, 1)))
        zeta_arr = np.atleast_1d(np.asarray(zeta, dtype=float))
        for start in range(0, ladder.n_resonances, chunk):
            sl = slice(start, start + chunk)
            x = 2.0 * (energies[None, :] - ladder.e0[sl, None]) / gamma[sl, None]
            denom = 1.0 + x * x
            psi_v = 1.0 / denom
            chi_v = 2.0 * x / denom
            near = np.abs(x) <= wofz_window
            if near.any():
                zeta_b = np.broadcast_to(zeta_arr[sl, None], x.shape)
                psi_n, chi_n = psi_chi(zeta_b[near], x[near])
                psi_v[near] = psi_n
                chi_v[near] = chi_n
            sqrt_ratio = np.sqrt(ladder.e0[sl, None] / energies[None, :])
            strength = sigma0[sl, None] * sqrt_ratio
            capture += np.sum(
                strength * (ladder.gamma_g[sl, None] / gamma[sl, None]) * psi_v,
                axis=0,
            )
            fission += np.sum(
                strength * (ladder.gamma_f[sl, None] / gamma[sl, None]) * psi_v,
                axis=0,
            )
            taper = np.exp(-((x / _INTERFERENCE_TAPER) ** 2))
            elastic += np.sum(
                strength * (ladder.gamma_n[sl, None] / gamma[sl, None]) * psi_v
                + interference[sl, None]
                * sqrt_ratio
                * chi_v
                * taper,
                axis=0,
            )

    np.clip(elastic, 0.0, None, out=elastic)
    total = elastic + capture + fission
    return {
        "elastic": elastic,
        "capture": capture,
        "fission": fission,
        "total": total,
    }


def dense_reconstruct_into(ladder, energies, out, **kwargs):
    """The oracle in ``reconstruct_into``'s shape, to build whole libraries."""
    parts = dense_reconstruct_xs(ladder, energies, **kwargs)
    for reaction in Reaction:
        out[reaction] = parts[reaction.name.lower()]
