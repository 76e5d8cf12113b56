"""The Hoogenboom-Martin full-core benchmark, end to end.

Builds the 241-assembly PWR core (17x17 pins per assembly, guide tubes,
reflectors), verifies the two geometry engines agree, transports a
generation of fission neutrons through the full core with the event-based
loop, and compares this Python implementation's measured behaviour with the
machine model's prediction of the paper's hardware (Table III rates).

Run:  python examples/full_core_hoogenboom.py
"""

import numpy as np

from repro import LibraryConfig, Settings, Simulation, build_library
from repro.execution.native import NativeModel
from repro.execution.symmetric import FleetNode
from repro.geometry.hoogenboom import FastCoreGeometry, build_hm_geometry
from repro.machine.kernels import WorkPerParticle
from repro.machine.presets import JLSE_HOST, MIC_7120A


def main() -> None:
    print("=== Geometry: the Hoogenboom-Martin core ===")
    hm = build_hm_geometry("hm-small")
    fast = FastCoreGeometry()
    rng = np.random.default_rng(1)
    pts = np.column_stack(
        [rng.uniform(-200, 200, 2000) for _ in range(3)]
    )
    ids = fast.locate_many(pts)
    labels = {0: "fuel", 1: "cladding", 2: "water", -1: "outside"}
    for mid in (-1, 0, 1, 2):
        frac = np.mean(ids == mid)
        print(f"  {labels[mid]:9s}: {frac:6.1%} of sampled points")

    print("\n=== Transport: one active generation on the full core ===")
    library = build_library("hm-small", LibraryConfig.tiny())
    sim = Simulation(
        library,
        Settings(
            n_particles=200, n_inactive=1, n_active=2, pincell=False,
            mode="event", seed=7,
        ),
    )
    result = sim.run()
    print(f"  k-effective (vacuum-bounded core) = {result.k_effective}")
    print(f"  leaks: {result.counters.flights - result.counters.collisions:,} "
          f"flight segments ended at surfaces")
    work = WorkPerParticle.from_counters(result.counters,
                                         200 * result.n_batches)
    print(f"  measured work/particle: {work.lookups:.1f} lookups, "
          f"{work.collisions:.1f} collisions")

    print("\n=== Machine model: the paper's hardware on this workload ===")
    for label, model in (
        ("JLSE host (2x E5-2687W)", NativeModel(JLSE_HOST, "hm-large")),
        ("Xeon Phi 7120a (native)", NativeModel(MIC_7120A, "hm-large")),
    ):
        print(f"  {label:28s}: {model.calculation_rate(100_000):8,.0f} n/s")
    node = FleetNode([MIC_7120A, MIC_7120A, JLSE_HOST], "hm-large")
    print(
        f"  {'CPU + 2 MIC (balanced)':28s}: "
        f"{node.calculation_rate(100_000, 'alpha', 0.62):8,.0f} n/s "
        "(paper: 17,098)"
    )


if __name__ == "__main__":
    main()
