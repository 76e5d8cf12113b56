"""The three Xeon Phi execution models, compared (paper §II-B, §III).

Walks through the paper's decision space with the calibrated machine model:

* **offload** — when does shipping banked particles over PCIe beat doing
  the lookups on the host? (Fig. 3's ~10,000-particle crossover);
* **native** — how does the MIC's rate compare to the host's across batch
  sizes, and where does memory run out? (Fig. 5, alpha = 0.62);
* **symmetric** — what does static load balancing buy? (Table III), and
  how does the runtime-adaptive alpha of §V converge?

Run:  python examples/execution_models.py
"""

from repro.execution.loadbalance import AdaptiveAlphaController, alpha_split
from repro.execution.native import NativeModel, alpha
from repro.execution.offload import OffloadCostModel
from repro.execution.symmetric import FleetNode
from repro.machine.presets import JLSE_HOST, MIC_7120A, PCIE_GEN2_X16


def main() -> None:
    print("=== Offload mode (bank + PCIe + MIC compute) ===")
    off = OffloadCostModel(JLSE_HOST, MIC_7120A, PCIE_GEN2_X16, "hm-small")
    print(f"  one-time energy grid transfer: {off.grid_transfer_time():.2f} s")
    for n in (1_000, 10_000, 100_000, 1_000_000):
        verdict = "offload WINS" if off.profitable(n) else "host wins"
        print(
            f"  {n:>9,} particles: offload {off.offload_time(n):7.3f} s vs "
            f"host lookups {off.host_lookup_time(n):7.3f} s -> {verdict}"
        )
    print(f"  crossover: ~{off.crossover_particles():,} particles "
          "(paper: above 10,000)")

    print("\n=== Native mode (whole app on the MIC) ===")
    host = NativeModel(JLSE_HOST, "hm-large")
    mic = NativeModel(MIC_7120A, "hm-large")
    print(f"  {'particles':>10s} {'CPU n/s':>10s} {'MIC n/s':>10s} {'alpha':>7s}")
    for exp in range(3, 8):
        n = 10**exp
        a = alpha(JLSE_HOST, MIC_7120A, "hm-large", n)
        print(
            f"  {n:>10,} {host.calculation_rate(n):>10,.0f} "
            f"{mic.calculation_rate(n):>10,.0f} {a:>7.3f}"
        )
    print("  (paper: alpha = 0.61-0.62 for >= 1e4 particles; MIC 1.5-2x)")

    print("\n=== Symmetric mode (MPI ranks on host + MICs) ===")
    n = 100_000
    node1 = FleetNode([MIC_7120A, JLSE_HOST], "hm-large")
    node2 = FleetNode([MIC_7120A, MIC_7120A, JLSE_HOST], "hm-large")
    n_mic, n_cpu = alpha_split(n, 1, 1, 0.62)
    print(f"  Eq. 3 split for {n:,} particles at alpha=0.62: "
          f"MIC {n_mic:,}, CPU {n_cpu:,}")
    for label, node in (("CPU + 1 MIC", node1), ("CPU + 2 MIC", node2)):
        eq = node.calculation_rate(n, "equal")
        lb = node.calculation_rate(n, "alpha", 0.62)
        print(
            f"  {label}: equal split {eq:8,.0f} n/s -> balanced "
            f"{lb:8,.0f} n/s (+{lb / eq - 1:.0%})"
        )

    print("\n=== Adaptive alpha (paper §V future work) ===")
    ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1, smoothing=0.5)
    cpu_rate = host.calculation_rate(n)
    mic_rate = mic.calculation_rate(n)
    print("  batch  alpha estimate  MIC share of particles")
    for batch in range(1, 6):
        ctrl.observe(cpu_rate, mic_rate)
        n_mic, _ = ctrl.split(n)
        print(f"  {batch:5d}  {ctrl.alpha:14.4f}  {n_mic / n:.1%}")


if __name__ == "__main__":
    main()
