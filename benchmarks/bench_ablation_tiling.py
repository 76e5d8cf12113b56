"""Ablation 8b: tile size of the banked XS data path.

``repro.transport.stages.TILE_ELEMENTS`` is a committed measurement, not a
parameter; this script is how it was measured (table in EXPERIMENTS.md)::

    PYTHONPATH=src python benchmarks/bench_ablation_tiling.py

Each point is a fresh process (peak RSS is a high-water mark) that builds
the default-fidelity library, warms up on 64 particles, and runs event
generations at one of the repo benchmark's two event sizes, with the
constant patched to the swept value.  ``untiled`` patches it past any bank,
which is the one-call-per-material-group dispatch the tiles replaced.
Under pytest only a tiny-fidelity smoke point runs.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter

SIZES = {"hm-small": 20_000, "hm-large": 4_000}
UNTILED = 1 << 40
TILES = (32_768, 65_536, 131_072, 262_144, UNTILED)
N_GENERATIONS = 5


def run_point(model, particles, tile, fidelity="default"):
    """Best and median generation seconds and peak RSS at one point."""
    import numpy as np

    from repro.data.library import LibraryConfig, build_library
    from repro.data.unionized import UnionizedGrid
    from repro.transport import stages
    from repro.transport.backends import EventBackend
    from repro.transport.context import TransportContext
    from repro.transport.simulation import Settings, Simulation
    from repro.transport.tally import GlobalTallies

    config = LibraryConfig.tiny() if fidelity == "tiny" else LibraryConfig()
    library = build_library(model, config)
    ctx = TransportContext.create(
        library, union=UnionizedGrid(library), master_seed=1
    )
    backend = EventBackend()
    sim = Simulation(
        library, Settings(n_particles=particles, seed=1, mode="event"),
        context=ctx,
    )
    backend.run_generation(ctx, *sim.initial_source(64), GlobalTallies())
    seconds = []
    k = []
    committed, stages.TILE_ELEMENTS = stages.TILE_ELEMENTS, tile
    try:
        for _ in range(N_GENERATIONS):
            tallies = GlobalTallies()
            source = sim.initial_source(particles)
            t0 = perf_counter()
            backend.run_generation(ctx, *source, tallies)
            seconds.append(perf_counter() - t0)
            k.append(tallies.collision)
    finally:
        stages.TILE_ELEMENTS = committed
    return {
        "model": model,
        "particles": particles,
        "tile": tile,
        "best_s": min(seconds),
        "median_s": float(np.median(seconds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "k_collision": k,
    }


def fresh(*args):
    out = subprocess.run(
        [sys.executable, __file__, "--point", *map(str, args)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main():
    if sys.argv[1:2] == ["--point"]:
        model, particles, tile = sys.argv[2:5]
        print(json.dumps(run_point(model, int(particles), int(tile))))
        return
    print("model particles tile best_s median_s peak_rss_mb")
    for model, particles in SIZES.items():
        reference = None
        for tile in TILES:
            row = fresh(model, particles, tile)
            # Tiling and banding are bit-identity preserving: every point
            # must reproduce the first one's tallies exactly.
            reference = reference or row["k_collision"]
            assert row["k_collision"] == reference, (row, reference)
            label = "untiled" if tile == UNTILED else tile
            print(
                f"{model} {particles} {label} "
                f"{row['best_s']:.3f} {row['median_s']:.3f} "
                f"{row['peak_rss_mb']:.1f}"
            )


def test_tile_point_smoke():
    """One tiny point, two tile sizes: same bits."""
    a = run_point("hm-small", 300, 4_096, fidelity="tiny")
    b = run_point("hm-small", 300, UNTILED, fidelity="tiny")
    assert a["k_collision"] == b["k_collision"]


if __name__ == "__main__":
    main()
