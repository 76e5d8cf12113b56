"""Ablation 3 (DESIGN.md §5): unionized energy grid vs per-nuclide search.

Leppänen's unionized grid trades memory (Table II's GB-scale index matrix)
for replacing per-nuclide binary searches with one union search plus
gathers.  Both configurations are exercised through the banked kernel; the
grid-search work counters quantify the reduction.
"""

import pytest

from repro.proxy.xsbench import XSBench

N = 2_000


@pytest.fixture(scope="module")
def with_union(tiny_large, union_large):
    xs = XSBench(tiny_large, union_large)
    return xs, xs.generate_lookups(N)


@pytest.fixture(scope="module")
def without_union(tiny_large):
    from repro.physics.macroxs import XSCalculator

    # Build an XSBench-like wrapper whose calculator has no union grid.
    xs = XSBench(tiny_large)
    xs.calculator = XSCalculator(tiny_large, None, use_sab=False, use_urr=False)
    return xs, xs.generate_lookups(N)


def test_unionized_lookups(benchmark, with_union):
    xs, sample = with_union
    t, counters = benchmark(xs.run_banked, sample)
    # One union search per particle.
    assert counters.grid_searches == N


def test_per_nuclide_search_lookups(benchmark, without_union):
    xs, sample = without_union
    t, counters = benchmark(xs.run_banked, sample)
    # One search per particle *per nuclide*.
    assert counters.grid_searches > 30 * N


def test_union_reduces_search_work(with_union, without_union):
    xs_u, sample = with_union
    xs_n, _ = without_union
    _, c_u = xs_u.run_banked(sample)
    _, c_n = xs_n.run_banked(sample)
    assert c_u.grid_searches * 30 < c_n.grid_searches


def test_union_memory_cost(tiny_large, union_large):
    """The trade: the index matrix dwarfs the union energies themselves —
    ``n_nuclides`` entries per union point against one float64 — at the
    narrowest entry the library's grids allow (2 B here, not 4)."""
    indices = union_large.indices
    bytes_per_entry = indices.nbytes / indices.size
    ratio = indices.nbytes / union_large.energy.nbytes
    print(
        f"\nunion grid (hm-large tiny): {indices.shape[0]} x "
        f"{indices.shape[1]} entries x {bytes_per_entry:.0f} B = "
        f"{indices.nbytes / 1e6:.2f} MB index matrix, "
        f"{ratio:.1f}x the {union_large.energy.nbytes / 1e6:.3f} MB of "
        f"union energies"
    )
    assert bytes_per_entry == 2
    assert ratio > 10
