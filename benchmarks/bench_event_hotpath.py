"""Event-loop hot-path bench: the event backend vs its recorded baseline.

One full generation — resolved through the transport backend registry,
the same route the simulation driver takes — on the H.M. full-core
configuration recorded in ``baselines/event_hotpath.json``.  Checks:

* **Physics fingerprint** — the generation's collision/track-length tallies
  and fission-site count must match the recorded baseline bitwise-tightly
  (rel 1e-12); a hot-path "optimization" that changes the Monte Carlo game
  is a bug, not a speedup.
* **Regression gate** — generation time is normalized by a fixed
  calibration kernel (searchsorted + interpolate, the shape of the XS
  lookup inner loop) so the gate is portable across machines.  The bench
  fails if the normalized time exceeds ``gate_factor`` times the recorded
  baseline.
* **Recorded speedup** — the committed before/after numbers of the
  compaction + fused-kernel PR must themselves document its >= 2x win.

Timing protocol: one explicit **warm-up generation excluded from the gated
region** before the timed rounds.
"""

import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.transport.backends import get_backend
from repro.transport.context import TransportContext
from repro.transport.tally import GlobalTallies

BASELINE = json.loads(
    (Path(__file__).parent / "baselines" / "event_hotpath.json").read_text()
)


def calibration_time() -> float:
    """Fixed-size lookup-shaped kernel; identical to the one used when the
    baseline was recorded, so ratios are comparable across machines."""
    rng = np.random.default_rng(0)
    x = rng.random(200_000)
    grid = np.sort(rng.random(5000))
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(10):
            idx = np.clip(np.searchsorted(grid, x) - 1, 0, grid.size - 2)
            y = 0.5 * grid[idx] + 0.5 * grid[idx + 1]
            float(y.sum())
        best = min(best, perf_counter() - t0)
    return best


def source(n, seed):
    rng = np.random.default_rng(seed)
    pos = np.column_stack(
        [
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-150, 150, n),
        ]
    )
    return pos, np.full(n, 1.0)


def _measure(backend, tiny_small, union_small, benchmark, warmup_rounds=1):
    """Warm-up (untimed) + timed best-of-rounds generations of ``backend``.

    Returns ``(best_generation_seconds, fingerprint)``.  The warm-up
    generations run the identical workload but never touch the timing —
    they exist to absorb one-shot costs (material-plan caches, workspace
    growth) outside the gated region.
    """
    cfg = BASELINE["config"]
    pos, en = source(cfg["n_particles"], cfg["source_seed"])
    best = {"gen": float("inf")}

    def run(record=True):
        ctx = TransportContext.create(
            tiny_small,
            pincell=cfg["pincell"],
            union=union_small,
            master_seed=cfg["master_seed"],
        )
        tallies = GlobalTallies()
        t0 = perf_counter()
        bank = backend.run_generation(ctx, pos, en, tallies, 1.0, 0)
        if record:
            best["gen"] = min(best["gen"], perf_counter() - t0)
        best["fingerprint"] = (
            tallies.collision, tallies.track_length, len(bank)
        )
        return bank

    for _ in range(warmup_rounds):
        run(record=False)
    benchmark.pedantic(run, rounds=3, iterations=1)
    return best["gen"], best["fingerprint"]


def _check_fingerprint(fingerprint):
    fp = BASELINE["fingerprint"]
    collision, track_length, n_sites = fingerprint
    assert collision == pytest.approx(fp["collision"], rel=1e-12)
    assert track_length == pytest.approx(fp["track_length"], rel=1e-12)
    assert n_sites == fp["n_sites"]


def test_event_hotpath_generation(tiny_small, union_small, benchmark):
    gen, fingerprint = _measure(
        get_backend("event"), tiny_small, union_small, benchmark
    )
    _check_fingerprint(fingerprint)

    cal = calibration_time()
    ratio = gen / cal
    recorded = BASELINE["event"]
    before = BASELINE["before"]
    after = BASELINE["after"]
    print(
        f"\nevent hot path: recorded ratio {recorded['ratio']:.2f}; "
        f"this run {gen:.3f}s (ratio {ratio:.2f}, calibration {cal:.3f}s)"
    )
    gate = BASELINE["gate_factor"] * recorded["ratio"]
    assert ratio <= gate, (
        f"event-loop generation regressed: normalized ratio {ratio:.2f} "
        f"exceeds gate {gate:.2f} (recorded ratio "
        f"{recorded['ratio']:.2f} x {BASELINE['gate_factor']})"
    )
    # The committed before/after history must itself document the >= 2x
    # hot-path win of the compaction + fused-kernel PR.
    assert (
        before["generation_seconds"] / after["generation_seconds"] >= 2.0
    )
