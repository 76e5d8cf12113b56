"""Table II: banking and offload overheads (per iteration, 1e5 particles).

Regenerates every Table II row for both H.M. models from the calibrated
offload cost model, alongside the actual (reduced-fidelity) data volumes of
this Python implementation for scale comparison.
"""

from __future__ import annotations

from ..data.library import LibraryConfig, build_library
from ..data.unionized import UnionizedGrid
from ..execution.offload import OffloadCostModel
from ..machine.memory import bank_bytes, energy_grid_bytes
from ..machine.presets import JLSE_HOST, MIC_7120A, PCIE_GEN2_X16
from ..transport.particle import ParticleBank
from .common import ExperimentResult, Scale, register

__all__ = ["run"]

PAPER = {
    "banking host [ms] (small/large)": "4 / 4",
    "banking MIC [ms] (small/large)": "21 / 34",
    "transfer [ms] (small/large)": "460 / 2,210",
    "bank size (small/large)": "496 MB / 2.84 GB",
    "energy grid (small/large)": "1.31 GB / 8.37 GB",
    "MIC compute [ms] (small/large)": "17 / 101",
}

N_PARTICLES = 100_000


@register("table2")
def run(scale: Scale) -> ExperimentResult:
    rows: list[dict] = []
    for model in ("hm-small", "hm-large"):
        off = OffloadCostModel(JLSE_HOST, MIC_7120A, PCIE_GEN2_X16, model)
        rows.append(
            {
                "operation": f"banking (host) [{model}]",
                "modelled": f"{off.banking_time_host(N_PARTICLES) * 1e3:.1f} ms",
            }
        )
        rows.append(
            {
                "operation": f"banking (MIC) [{model}]",
                "modelled": f"{off.banking_time_mic(N_PARTICLES) * 1e3:.1f} ms",
            }
        )
        rows.append(
            {
                "operation": f"transfer time (PCIe) [{model}]",
                "modelled": f"{off.transfer_time(N_PARTICLES) * 1e3:.0f} ms",
            }
        )
        rows.append(
            {
                "operation": f"bank size transferred [{model}]",
                "modelled": f"{bank_bytes(N_PARTICLES, model) / 1e9:.3f} GB",
            }
        )
        rows.append(
            {
                "operation": f"energy grid size transferred [{model}]",
                "modelled": f"{energy_grid_bytes(model) / 1e9:.2f} GB",
            }
        )
        rows.append(
            {
                "operation": f"compute bank cross sections (MIC) [{model}]",
                "modelled": f"{off.mic_compute_time(N_PARTICLES) * 1e3:.0f} ms",
            }
        )

    # Actual (reduced-fidelity) volumes of this implementation, for context.
    config = (
        LibraryConfig.tiny() if scale.library == "tiny" else LibraryConfig()
    )
    library = build_library("hm-small", config)
    union = UnionizedGrid(library)
    bank = ParticleBank(min(N_PARTICLES, scale.particles * 10))
    rows.append(
        {
            "operation": "ACTUAL python SoA bank (per particle)",
            "modelled": f"{bank.nbytes / bank.n:.0f} B",
        }
    )
    rows.append(
        {
            "operation": "ACTUAL python union grid (reduced fidelity)",
            "modelled": f"{union.nbytes / 1e6:.2f} MB",
        }
    )

    result = ExperimentResult(
        exp_id="table2",
        title="Offload overheads per iteration, 1e5 particles (paper Table II)",
        rows=rows,
        paper=PAPER,
    )
    result.notes.append(
        "modelled record layout back-derived from Table II: 1,434 B base + "
        "82 B/nuclide per particle; union grid ~3.4e6 points x 8 B/nuclide"
    )
    result.notes.append(
        "energy grid cost is paid once at initialization and amortized "
        "(paper: '~1 second for every 5 GB')"
    )
    return result
